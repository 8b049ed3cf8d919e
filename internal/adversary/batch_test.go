package adversary_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// newBatchTappedStack is newTappedStack with the epoch-batched pipeline
// on: link key paired, UA in batch mode, and (optionally) a middleware
// wrapping the IA node so the adversary can capture the raw UA→IA batch
// envelopes — the new wire surface this mode introduces.
func newBatchTappedStack(t *testing.T, km keyMaterial, shuffleSize int, wrapIA func(http.Handler) http.Handler) *tappedStack {
	t.Helper()
	st := &tappedStack{rec: adversary.NewRecorder(), net: transport.NewNetwork()}
	t.Cleanup(func() { st.net.Close() })

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	st.uaEncl = proxy.NewUAEnclave(platform)
	st.iaEncl = proxy.NewIAEnclave(platform, proxy.IAOptions{})
	if st.uaKeys, err = km.newKeys(); err != nil {
		t.Fatal(err)
	}
	if st.iaKeys, err = km.newKeys(); err != nil {
		t.Fatal(err)
	}
	if err := proxy.PairLinkKey(st.uaKeys, st.iaKeys); err != nil {
		t.Fatal(err)
	}
	if err := st.uaKeys.Provision(as, st.uaEncl, proxy.UAIdentity); err != nil {
		t.Fatal(err)
	}
	if err := st.iaKeys.Provision(as, st.iaEncl, proxy.IAIdentityFor(proxy.IAOptions{})); err != nil {
		t.Fatal(err)
	}

	st.engine = engine.New(engine.DefaultConfig())
	lrsTap := adversary.Tap(st.rec, "ia→lrs", func(body []byte) string {
		var req message.LRSPost
		if err := message.Unmarshal(body, &req); err == nil && req.User != "" {
			return req.User
		}
		var q message.LRSGet
		if err := message.Unmarshal(body, &q); err == nil {
			return q.User
		}
		return ""
	}, engine.NewHandler(st.engine))
	st.serve(t, "lrs", lrsTap)

	httpClient := transport.HTTPClient(st.net, 30*time.Second)
	ia, err := proxy.New(proxy.Config{
		Role: proxy.RoleIA, Enclave: st.iaEncl, Next: "http://lrs",
		HTTPClient: httpClient, ShuffleSize: shuffleSize, ShuffleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ia = ia
	var iaHandler http.Handler = ia
	if wrapIA != nil {
		iaHandler = wrapIA(iaHandler)
	}
	st.serve(t, "ia", iaHandler)

	ua, err := proxy.New(proxy.Config{
		Role: proxy.RoleUA, Enclave: st.uaEncl, Next: "http://ia",
		HTTPClient: httpClient, ShuffleSize: shuffleSize, ShuffleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ua = ua
	// Edge tap: bodies are encrypted, so no identity is extractable from
	// content — but which suite sealed the fields is: it is their length.
	st.serve(t, "ua", adversary.Tap(st.rec, "client→ua", suiteOnTheWire, ua))

	st.client = client.New(proxy.Bundle(st.uaKeys, st.iaKeys), httpClient, "http://ua")
	return st
}

// TestTimingAttackDefeatedWithBatching re-runs the §6.2 in-order
// correlation attack against the epoch-batched pipeline: the whole epoch
// leaves as ONE envelope in the shuffler's permuted order, so the
// adversary correlating client→UA arrival order with IA→LRS order must
// stay at ≈ 1/S exactly as in per-message mode.
func TestTimingAttackDefeatedWithBatching(t *testing.T) {
	eachKeyMaterial(t, testTimingAttackDefeatedWithBatching)
}

func testTimingAttackDefeatedWithBatching(t *testing.T, km keyMaterial) {
	const s = 8
	const batches = 8
	st := newBatchTappedStack(t, km, s, nil)
	ctx := context.Background()

	var users []string
	var edge []adversary.Event
	for b := 0; b < batches; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := fmt.Sprintf("victim-%d-%d", b, i)
			users = append(users, u)
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := st.client.Post(ctx, u, "sensitive-item", ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}(u)
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}

	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), st.truth(t, users))
	if acc > 0.4 {
		t.Errorf("in-order attack accuracy with batching = %.2f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
	t.Logf("batched attack accuracy = %.3f (theory 1/S = %.3f)", acc, 1.0/s)
}

// TestBatchEnvelopeLeaksNoCorrespondence inspects the new wire surface
// itself: the adversary captures a raw UA→IA batch envelope and its
// response. Entry ids must be bare post-shuffle positions (sequential
// integers), entry bodies opaque ciphertext, and the response entries
// re-permuted by the IA — so the envelope reveals nothing per-message
// HTTP exchanges did not already reveal.
func TestBatchEnvelopeLeaksNoCorrespondence(t *testing.T) {
	eachKeyMaterial(t, testBatchEnvelopeLeaksNoCorrespondence)
}

func testBatchEnvelopeLeaksNoCorrespondence(t *testing.T, km keyMaterial) {
	const s = 8
	type capture struct {
		req, resp []byte
	}
	var mu sync.Mutex
	var captures []capture
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != message.BatchPath {
				next.ServeHTTP(w, r)
				return
			}
			reqBody, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
			rec := &respRecorder{ResponseWriter: w}
			next.ServeHTTP(rec, r)
			mu.Lock()
			captures = append(captures, capture{req: reqBody, resp: rec.buf.Bytes()})
			mu.Unlock()
		})
	}
	st := newBatchTappedStack(t, km, s, wrap)
	ctx := context.Background()

	users := make([]string, s)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		users[i] = fmt.Sprintf("victim-%02d", i)
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if err := st.client.Post(ctx, u, "sensitive-item", ""); err != nil {
				t.Errorf("post: %v", err)
			}
		}(users[i])
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(captures) == 0 {
		t.Fatal("adversary captured no batch envelopes")
	}
	truth := st.truth(t, users)
	identityResponses := 0
	for _, c := range captures {
		reqEntries, err := message.UnmarshalBatch(c.req)
		if err != nil {
			t.Fatalf("captured request envelope: %v", err)
		}
		// Ids are nothing but positions in the permuted release order.
		for i, e := range reqEntries {
			if e.ID != i {
				t.Errorf("request entry %d has id %d: ids must be bare slot positions", i, e.ID)
			}
		}
		// Bodies are hop-encrypted: no cleartext identity, no inner
		// message structure, and no pseudonym (which only the IA→LRS
		// link may carry) is visible to the envelope observer.
		for i, e := range reqEntries {
			for _, u := range users {
				if bytes.Contains(e.Body, []byte(u)) {
					t.Errorf("entry %d body contains plaintext user %q", i, u)
				}
				if bytes.Contains(e.Body, []byte(truth[u])) {
					t.Errorf("entry %d body contains the pseudonym of %q", i, u)
				}
			}
			if bytes.Contains(e.Body, []byte("enc_user")) {
				t.Errorf("entry %d body leaks inner message structure", i)
			}
		}
		respEntries, err := message.UnmarshalBatch(c.resp)
		if err != nil {
			t.Fatalf("captured response envelope: %v", err)
		}
		if len(respEntries) != len(reqEntries) {
			t.Fatalf("response carries %d entries for %d requests", len(respEntries), len(reqEntries))
		}
		inOrder := true
		for i, e := range respEntries {
			if e.ID != i {
				inOrder = false
			}
		}
		if inOrder {
			identityResponses++
		}
	}
	// The IA re-permutes response order; with S=8 an identity permutation
	// has probability 1/8! per epoch, so even one across the run flags a
	// missing shuffle (tolerate it only if a single epoch was captured).
	if identityResponses == len(captures) {
		first, _ := message.UnmarshalBatch(captures[0].resp)
		if len(first) >= 4 {
			t.Errorf("every captured response envelope echoed request order: IA response shuffle missing")
		}
	}
}

// respRecorder tees a handler's response body.
type respRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *respRecorder) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return r.ResponseWriter.Write(p)
}
