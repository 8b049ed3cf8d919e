package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/faults"
	"pprox/internal/hopwire"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/node"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// restStack is client → UA → IA → LRS over localhost TCP, with the real
// engine behind the IA. The LRS handler is the engine's REST handler
// under a counter of the requests it receives, a check that each body
// carries only the REST contract's keys, and a fault injector that loses
// the replies to the first two posts.
type restStack struct {
	eng      *engine.Engine
	ua, ia   *node.Proxy
	cl       *client.Client
	requests atomic.Int64
}

// newRESTStack deploys the stack with the LRS served either as an
// unmodified REST service (an httptest.Server) or, for the twin, the way
// pprox-lrs serves it (transport.Serve). Both speak only REST.
func newRESTStack(t *testing.T, ua, ia *proxy.LayerKeys, s int, twin bool) *restStack {
	t.Helper()
	st := &restStack{}
	eng, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st.eng = eng
	inj := faults.NewInjector(7, faults.Rule{
		Kind: faults.KindError, Status: http.StatusServiceUnavailable,
		Path: message.EventsPath, Count: 2, After: true,
	})
	t.Cleanup(inj.Close)
	inner := inj.Middleware(engine.NewHandler(eng))
	lrs := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if allowed, ok := restContractKeys[r.URL.Path]; ok {
			st.requests.Add(1)
			checkBodyKeys(t, r, allowed)
		}
		inner.ServeHTTP(w, r)
	})
	var lrsURL string
	if twin {
		lrsURL = serveTCP(t, lrs, transport.Serve)
	} else {
		srv := httptest.NewServer(lrs)
		t.Cleanup(srv.Close)
		lrsURL = srv.URL
	}

	st.front(t, ua, ia, s, lrsURL, nil)
	return st
}

// restContractKeys is every JSON key the LRS may receive per path: the
// paper's post(u, i[, p]) and get(u) plus the indicator type and the
// enclave-minted idempotency key on an event, and the list length on a
// query. Nothing else reaches the LRS.
var restContractKeys = map[string]map[string]bool{
	message.EventsPath:  {"user": true, "item": true, "payload": true, "event": true, "idem": true},
	message.QueriesPath: {"user": true, "n": true},
}

// checkBodyKeys fails the test if r's JSON body carries a key outside
// allowed, and restores the body for the handler behind it.
func checkBodyKeys(t *testing.T, r *http.Request, allowed map[string]bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Errorf("read %s body: %v", r.URL.Path, err)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Errorf("%s body is not a JSON object: %v", r.URL.Path, err)
	}
	for k := range fields {
		if !allowed[k] {
			t.Errorf("%s body carries %q, outside the REST contract", r.URL.Path, k)
		}
	}
}

// front deploys the UA and IA in front of the LRS at lrsURL, provisioned
// with ua and ia, and a client holding their bundle. tap, when set, wraps
// the IA's handler, which takes the UA→IA frames.
func (st *restStack) front(t *testing.T, ua, ia *proxy.LayerKeys, s int, lrsURL string, tap func(http.Handler) http.Handler) {
	t.Helper()
	prov, err := node.NewProvisioning(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	env := node.Env{
		Dialer:    &net.Dialer{Timeout: 5 * time.Second},
		Registry:  metrics.NewRegistry(),
		Provision: prov,
	}
	build := func(role proxy.Role, name, next string) (*node.Proxy, string) {
		p, err := node.NewProxy(node.Config{
			Role: role, Name: name, Next: next,
			// Epochs fill by size: a round of S requests is one epoch.
			ShuffleSize: s, ShuffleTimeout: 10 * time.Second,
			Resilience: chaosPolicy(),
		}, env)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		h := p.Handler
		if role == proxy.RoleIA && tap != nil {
			h = tap(h)
		}
		return p, serveTCP(t, h, hopwire.ServeHTTPAndFrames)
	}
	var iaURL, uaURL string
	st.ia, iaURL = build(proxy.RoleIA, "ia-0", lrsURL)
	st.ua, uaURL = build(proxy.RoleUA, "ua-0", iaURL)
	st.cl = client.New(proxy.Bundle(ua, ia), transport.HTTPClient(&net.Dialer{Timeout: 5 * time.Second}, 10*time.Second), uaURL)
}

// serveTCP serves h with serve on a localhost port until the test ends
// and returns its base URL.
func serveTCP(t *testing.T, h http.Handler, serve func(net.Listener, http.Handler) func() error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdown := serve(l, h)
	t.Cleanup(func() { shutdown() })
	return "http://" + l.Addr().String()
}

// round runs one epoch: S requests at once, one per user, and returns
// what the LRS received during it.
func (st *restStack) round(t *testing.T, users []string, do func(ctx context.Context, user string) error) int64 {
	t.Helper()
	before := st.requests.Load()
	var wg sync.WaitGroup
	errs := make(chan error, len(users))
	for _, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := do(ctx, u); err != nil {
				errs <- fmt.Errorf("%s: %w", u, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return st.requests.Load() - before
}

// TestUnmodifiedRESTLRSBehindTheProxies is the paper's premise (§3, §7):
// PProx fronts an existing recommender's REST API without changing it.
// The IA forwards into an httptest.Server holding nothing but the
// engine's REST handler. Posts with lost replies are retried under the
// enclave's idempotency key, gets follow training, and the test requires:
// the answers of the twin served as pprox-lrs serves the engine;
// exactly-once storage of every post; and at the LRS, requests arriving
// S to an epoch.
func TestUnmodifiedRESTLRSBehindTheProxies(t *testing.T) {
	const s, users, postRounds = 4, 8, 6
	ua, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.PairLinkKey(ua, ia); err != nil {
		t.Fatal(err)
	}
	name := func(u int) string { return fmt.Sprintf("rest-user-%d", u) }

	run := func(twin bool) map[string][]string {
		st := newRESTStack(t, ua, ia, s, twin)
		// Each post round is S distinct users, so a user's history has
		// the same order on both stacks whatever the shuffle did.
		for r := 0; r < postRounds; r++ {
			var group []string
			item := make(map[string]string, s)
			for i := 0; i < s; i++ {
				u := name((r*s + i) % users)
				group = append(group, u)
				item[u] = fmt.Sprintf("rest-item-%d", (r+i)%5)
			}
			got := st.round(t, group, func(ctx context.Context, u string) error {
				return st.cl.Post(ctx, u, item[u], "")
			})
			want := int64(s)
			if r == 0 {
				want += 2 // the two posts whose replies were lost, retried
			}
			if got != want {
				t.Errorf("twin=%v: post round %d reached the LRS as %d requests, want %d", twin, r, got, want)
			}
		}
		if n, want := st.eng.EventCount(), postRounds*s; n != want {
			t.Errorf("twin=%v: the LRS stores %d events, want exactly %d", twin, n, want)
		}
		if dups := st.eng.DupEvents(); dups != 2 {
			t.Errorf("twin=%v: %d deduplicated deliveries, want 2", twin, dups)
		}
		if err := st.eng.TrainNow(); err != nil {
			t.Fatal(err)
		}

		answers := make(map[string][]string, users)
		var mu sync.Mutex
		for r := 0; r < users/s; r++ {
			var group []string
			for i := 0; i < s; i++ {
				group = append(group, name(r*s+i))
			}
			got := st.round(t, group, func(ctx context.Context, u string) error {
				items, err := st.cl.Get(ctx, u)
				mu.Lock()
				answers[u] = items
				mu.Unlock()
				return err
			})
			if got != s {
				t.Errorf("twin=%v: get round %d reached the LRS as %d requests, want %d", twin, r, got, s)
			}
		}

		stats := st.ia.Layer.BatchStats()
		if want := uint64(postRounds + users/s); stats.Batches != want || stats.Messages != want*s {
			t.Errorf("twin=%v: IA batch stats %+v, want %d epochs of %d", twin, stats, want, s)
		}
		return answers
	}

	rest, twin := run(false), run(true)
	nonEmpty := 0
	for _, items := range rest {
		if len(items) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Errorf("no get answered any item: %v", rest)
	}
	if !reflect.DeepEqual(rest, twin) {
		t.Errorf("httptest-served answers differ from the twin's:\nREST %v\ntwin %v", rest, twin)
	}
}
