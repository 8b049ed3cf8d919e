package adversary_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/client"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// suiteOnTheWire is what any observer of a client→UA message reads about
// the suite that sealed it: the length of the user field. Constant within
// a suite, different between the two.
func suiteOnTheWire(body []byte) string {
	var req message.PostRequest
	if err := message.Unmarshal(body, &req); err != nil {
		return ""
	}
	ct, err := message.Decode64(req.EncUser)
	if err != nil {
		return ""
	}
	return strconv.Itoa(len(ct))
}

// TestMixedSuiteEpochIsAsStrongAsItsSmallerClass pins the bound DESIGN.md
// §4l states for an epoch in which a of S clients still hold RSA-only
// bundles. The adversary is the strongest the model allows: it broke the
// IA enclave (so it reads every item, and the hop envelope), and it
// watches the client→UA link (so it knows who sent when, and — the field
// length — under which suite). It splits every epoch into its two suite
// classes and runs the §6.2 in-order attack inside each.
//
// It links a member of a class of n to their item with probability 1/n and
// no better: 1/a for the RSA holders, 1/(S−a) for the rest, where a
// uniform epoch gives everyone 1/S. Hence one kind of bundle per
// deployment.
func TestMixedSuiteEpochIsAsStrongAsItsSmallerClass(t *testing.T) {
	const (
		s      = 8
		a      = 2 // RSA-only holders per epoch
		epochs = 60
	)
	var mu sync.Mutex
	var envelopes [][]byte
	capture := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == message.BatchPath {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				envelopes = append(envelopes, body)
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	}
	st := newBatchTappedStack(t, keyMaterial{name: "box"}, s, capture)
	stale := proxy.Bundle(st.uaKeys, st.iaKeys)
	stale.UABox, stale.IABox = nil, nil
	rsaClient := client.New(stale, transport.HTTPClient(st.net, 30*time.Second), "http://ua")

	ctx := context.Background()
	var users []string           // in send order
	truth := map[string]string{} // user → the item only they posted
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u, item := fmt.Sprintf("victim-%d-%d", e, i), fmt.Sprintf("item-%d-%d", e, i)
			users, truth[u] = append(users, u), item
			cl := st.client
			if i%(s/a) == 1 { // positions 1 and 5: the stale-bundle holders
				cl = rsaClient
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cl.Post(ctx, u, item, ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}()
			// The next client sends once this one's message has reached
			// the UA, so arrival order is send order.
			for deadline := time.Now().Add(10 * time.Second); len(st.rec.Events("client→ua")) < len(users); {
				if time.Now().After(deadline) {
					t.Fatalf("message %d never reached the UA", len(users))
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		wg.Wait()
	}

	arrivals := st.rec.Events("client→ua")
	if len(arrivals) != len(users) || len(envelopes) != epochs {
		t.Fatalf("captured %d arrivals and %d envelopes, want %d and %d", len(arrivals), len(envelopes), len(users), epochs)
	}
	loot := adversary.Loot{IA: st.iaEncl.Compromise()}
	rsaClass := strconv.Itoa(ppcrypto.RSACiphertextSize)

	// hits[class] / tried[class]: the suite-aware attack; blind: the same
	// adversary ignoring the field length.
	hits, tried := map[string]int{}, map[string]int{}
	blind := 0
	for e, env := range envelopes {
		_, entries, err := message.UnmarshalBatchEpoch(env)
		if err != nil || len(entries) != s {
			t.Fatalf("epoch %d: %d entries, err %v; want a whole epoch of %d", e, len(entries), err, s)
		}
		// Egress side, in release order: each entry's suite and item.
		var outClass, outItem []string
		for _, entry := range entries {
			req := openHop(t, loot, entry.Body)
			ct, err := message.Decode64(req.EncItem)
			if err != nil {
				t.Fatal(err)
			}
			item := adversary.DecryptInterceptedPost(loot, req).Item
			if item == "" {
				t.Fatalf("epoch %d: IA loot did not open a %d-byte item field", e, len(ct))
			}
			outClass, outItem = append(outClass, strconv.Itoa(len(ct))), append(outItem, item)
		}
		// Ingress side, in arrival order.
		next := map[string]int{} // per class: how many arrivals matched so far
		for i := 0; i < s; i++ {
			u, class := users[e*s+i], arrivals[e*s+i].Label
			if outItem[i] == truth[u] {
				blind++
			}
			// The k-th arrival of a class ↔ the k-th released entry of it.
			k, guess := next[class], ""
			next[class]++
			for j, c := range outClass {
				if c != class {
					continue
				}
				if k == 0 {
					guess = outItem[j]
					break
				}
				k--
			}
			tried[class]++
			if guess == truth[u] {
				hits[class]++
			}
		}
	}

	if tried[rsaClass] != a*epochs || len(tried) != 2 {
		t.Fatalf("suite classes seen on the wire: %v, want %d RSA-sized arrivals and one other class", tried, a*epochs)
	}
	for class, n := range tried {
		size := s - a
		if class == rsaClass {
			size = a
		}
		acc := float64(hits[class]) / float64(n)
		t.Logf("class of %d (%s-byte fields): suite-aware in-order accuracy %.3f, bound 1/%d = %.3f", size, class, acc, size, 1/float64(size))
		// Whole epochs are right or wrong together, so the spread is wide:
		// 60 epochs put 1/2 ± 0.25 and 1/6 + 0.25 four deviations out.
		if acc > 1/float64(size)+0.25 {
			t.Errorf("class of %d: accuracy %.3f beats the bound 1/%d — something besides the suite leaks", size, acc, size)
		}
		if class == rsaClass && acc < 1/float64(size)-0.25 {
			t.Errorf("class of %d: accuracy %.3f is far below 1/%d — the mixed epoch should be this weak; is the class still visible?", size, acc, size)
		}
	}
	if acc := float64(blind) / float64(len(users)); acc > 0.3 {
		t.Errorf("suite-blind in-order accuracy %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
}

// openHop strips the UA→IA hop envelope off a captured batch entry with
// the link key the IA loot holds.
func openHop(t *testing.T, loot adversary.Loot, body []byte) message.PostRequest {
	t.Helper()
	plain, err := ppcrypto.SymDecrypt(loot.IA["link"], body)
	if err != nil {
		t.Fatal(err)
	}
	var req message.PostRequest
	if err := message.Unmarshal(plain, &req); err != nil {
		t.Fatalf("hop plaintext is not a post: %v", err)
	}
	return req
}
