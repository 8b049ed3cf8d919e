package proxy_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/message"
	"pprox/internal/transport"
)

// frameTap records every batch frame the IA receives, in arrival order.
type frameTap struct {
	mu     sync.Mutex
	frames [][]message.BatchEntry
}

func (ft *frameTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if entries, err := message.UnmarshalBatch(body); err == nil {
			ft.mu.Lock()
			ft.frames = append(ft.frames, entries)
			ft.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

// TestUnshuffledUASendsOneEntryFramePerRequest: with shuffling off (S = 0
// or 1) the UA runs the one pipeline with epochs of one — every request
// leaves as its own one-entry frame, in arrival order, after exactly one
// UA enclave crossing.
func TestUnshuffledUASendsOneEntryFramePerRequest(t *testing.T) {
	for _, s := range []int{0, 1} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) {
			var tap frameTap
			st := newStack(t, stackOptions{useStub: true, shuffleSize: s, iaMiddleware: tap.wrap})
			ctx := ctxT(t)

			var kinds []string
			for i := 0; i < 6; i++ {
				u := fmt.Sprintf("user-%d", i)
				if i%2 == 0 {
					kinds = append(kinds, message.BatchKindPost)
					st.mustPost(t, ctx, u, "item")
					continue
				}
				kinds = append(kinds, message.BatchKindGet)
				if _, err := st.client.Get(ctx, u); err != nil {
					t.Fatalf("get: %v", err)
				}
			}

			tap.mu.Lock()
			defer tap.mu.Unlock()
			if len(tap.frames) != len(kinds) {
				t.Fatalf("IA received %d frames for %d requests", len(tap.frames), len(kinds))
			}
			for i, f := range tap.frames {
				if len(f) != 1 || f[0].Kind != kinds[i] {
					t.Errorf("frame %d = %+v, want one %q entry", i, f, kinds[i])
				}
			}
			if bs := st.ua.BatchStats(); bs.Batches != uint64(len(kinds)) || bs.Messages != uint64(len(kinds)) {
				t.Errorf("UA batch stats = %+v, want %d one-message epochs", bs, len(kinds))
			}
			if got := st.uaEncl.EcallCount(); got != uint64(len(kinds)) {
				t.Errorf("UA enclave crossings = %d for %d requests, want 1 each", got, len(kinds))
			}
		})
	}
}

// TestIAServesOnlyBatch: the per-message routes are gone from the IA —
// only /batch frames (and /healthz) are served, pass-through included.
func TestIAServesOnlyBatch(t *testing.T) {
	for _, passThrough := range []bool{false, true} {
		st := newStack(t, stackOptions{useStub: true, passThrough: passThrough})
		raw := transport.HTTPClient(st.net, 5*time.Second)
		for _, path := range []string{message.EventsPath, message.QueriesPath} {
			resp, err := raw.Post("http://ia"+path, "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("pass-through=%v: IA %s answered %d, want 404", passThrough, path, resp.StatusCode)
			}
		}
		resp, err := raw.Get("http://ia" + message.HealthPath)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pass-through=%v: IA /healthz answered %d", passThrough, resp.StatusCode)
		}
	}
}

// TestIARejectsJSONBatchEnvelope: the JSON v1 envelope that bridged PR 7's
// rolling upgrade is retired — an IA answers it 400 "bad batch envelope"
// and sends nothing to the LRS.
func TestIARejectsJSONBatchEnvelope(t *testing.T) {
	var lrsHits atomic.Int64
	st := newStack(t, stackOptions{
		useStub: true,
		lrsMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				lrsHits.Add(1)
				next.ServeHTTP(w, r)
			})
		},
	})
	raw := transport.HTTPClient(st.net, 5*time.Second)
	legacy := `{"v":1,"entries":[{"id":0,"kind":"get","body":"e30="}]}`
	resp, err := raw.Post("http://ia"+message.BatchPath, "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(body)) != "bad batch envelope" {
		t.Errorf("JSON envelope answered %d %q, want 400 \"bad batch envelope\"", resp.StatusCode, body)
	}
	if n := lrsHits.Load(); n != 0 {
		t.Errorf("LRS saw %d requests for a refused envelope", n)
	}
}

// TestServedCountsOnly2xxOnBothLayers is the regression test for the UA
// exporting every relayed answer as served: an entry the IA enclave
// rejects (400) and one the LRS refuses (503) are failures on BOTH layers,
// exactly as the IA already counted them.
func TestServedCountsOnly2xxOnBothLayers(t *testing.T) {
	var lrsDown atomic.Bool
	st := newStack(t, stackOptions{
		useStub: true,
		lrsMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if lrsDown.Load() {
					http.Error(w, "unavailable", http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	ctx := context.Background()
	raw := transport.HTTPClient(st.net, 5*time.Second)

	// Served: an ordinary get.
	if _, err := st.client.Get(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	// Rejected by the IA enclave: the UA can pseudonymize the user, but
	// the item field is no ciphertext for the IA.
	encUser, err := encryptIDForTest(st.uaKeys, "bob")
	if err != nil {
		t.Fatal(err)
	}
	post := fmt.Sprintf(`{"enc_user":%q,"enc_item":%q}`, encUser, message.Encode64(make([]byte, 80)))
	resp, err := raw.Post("http://ua"+message.EventsPath, "application/json", strings.NewReader(post))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("IA-rejected post answered %d, want 400", resp.StatusCode)
	}
	// Refused by the LRS: the 503 is relayed, not served.
	lrsDown.Store(true)
	if _, err := st.client.Get(ctx, "carol"); err == nil {
		t.Fatal("get succeeded against a refusing LRS")
	}

	for _, l := range []struct {
		name   string
		served func() (uint64, uint64)
	}{{"UA", st.ua.Stats}, {"IA", st.ia.Stats}} {
		if served, failed := l.served(); served != 1 || failed != 2 {
			t.Errorf("%s stats = %d served, %d failed; want 1 and 2", l.name, served, failed)
		}
	}
}
