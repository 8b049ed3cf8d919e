package cluster_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/message"
	"pprox/internal/resilience"
)

func hopwireSpec(s int) cluster.Spec {
	return cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		LRSConcurrency: 4,
	}
}

// TestHopwireClusterEndToEnd runs the full encrypted batch pipeline
// over both hops' protocols: every epoch crosses UA→IA as one frame, and
// the IA reaches the LRS through its plain REST API. Every get must
// succeed; the UA's hop counters must prove the epochs rode frames, and
// the LRS must have served every message as an HTTP request, over
// keep-alive connections fewer than the requests.
func TestHopwireClusterEndToEnd(t *testing.T) {
	const s = 8
	spec := hopwireSpec(s)
	spec.Audit = &audit.Config{}
	var queries atomic.Int64
	spec.LRSMiddleware = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == message.QueriesPath {
				queries.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conns := tapLRS(t, d)

	const epochs = 3
	for b := 0; b < epochs; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("hopwire epoch %d: %d gets failed", b, failed)
		}
	}

	uaHop := d.UALayers[0].Hopwire()
	if uaHop == nil {
		t.Fatal("UA layer deployed without a hop client")
	}
	if st := uaHop.Stats(); st.Exchanges < epochs {
		t.Errorf("UA hop stats = %+v, want ≥%d frame exchanges", st, epochs)
	}
	if st := d.IALayers[0].Hopwire().Stats(); st.Exchanges != 0 {
		t.Errorf("IA hop stats = %+v, want no frame exchange", st)
	}
	if got := queries.Load(); got != epochs*s {
		t.Errorf("the LRS served %d HTTP queries, want %d", got, epochs*s)
	}
	if n := conns.Load(); n == 0 || n >= queries.Load() {
		t.Errorf("the IA opened %d connections to the LRS for %d requests — keep-alive broken", n, queries.Load())
	}
	if stats := d.UALayers[0].BatchStats(); stats.Messages != epochs*s || stats.Degraded != 0 {
		t.Errorf("UA batch stats = %+v, want %d messages, none degraded", stats, epochs*s)
	}
	// Both layers release every epoch; the IA's releases reach the
	// auditor after the replies do.
	waitFor(t, "both layers' epochs at the auditor", func() bool {
		seen, _, _, _ := d.Auditor.Stats()
		return seen >= 2*epochs
	})
	if st := d.Auditor.State(); st != audit.StateOK {
		t.Errorf("auditor state with hopwire = %v, want ok", st)
	}
}

// tapLRS puts a relay in front of the deployment's one LRS front end and
// points the balancer's "lrs" service at it, so every connection the IA
// opens to the LRS is accepted on the relay's listener first. It returns
// the count of those connections.
func tapLRS(t *testing.T, d *cluster.Deployment) *atomic.Int64 {
	t.Helper()
	l, err := d.Net.Listen("lrs-tap")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var conns atomic.Int64
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer down.Close()
				up, err := d.Net.DialContext(context.Background(), "mem", "lrs-0")
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					io.Copy(up, down)
					up.Close()
				}()
				io.Copy(down, up)
			}()
		}
	}()
	d.Balancer.Register("lrs", "lrs-tap")
	return &conns
}

// TestHopwireSurvivesHopKillMidStream kills the IA node between epochs —
// every pooled frame connection dies with it — restarts it, and requires
// the next epoch at full goodput: the client's conn health check and
// fresh-dial retry must absorb the crash without surfacing errors.
func TestHopwireSurvivesHopKillMidStream(t *testing.T) {
	const s = 4
	spec := hopwireSpec(s)
	spec.Resilience = &resilience.Policy{
		HopTimeout:  2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if failed := getBatch(t, d, s, 0); failed != 0 {
		t.Fatalf("pre-kill epoch: %d gets failed", failed)
	}

	// The UA now holds pooled conns to ia-0. Kill and restart: the pool
	// is full of dead connections the next epoch must detect and replace.
	if err := d.Kill("ia-0"); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart("ia-0"); err != nil {
		t.Fatal(err)
	}

	if failed := getBatch(t, d, s, 1); failed != 0 {
		t.Fatalf("post-restart epoch: %d gets failed — dead pooled conns not recovered", failed)
	}
	if st := d.UALayers[0].Hopwire().Stats(); st.Dials < 2 {
		t.Errorf("dials = %d, want ≥2 (a fresh dial after the crash)", st.Dials)
	}
}

// TestHopwireChaosLadderOverFrames injects /batch faults on the frame hop:
// the resilience ladder (whole → halves → per-message) must work over the
// frame transport exactly as over HTTP, because the frame server bridges
// through the same middleware stack the injector sits in.
func TestHopwireChaosLadderOverFrames(t *testing.T) {
	const s = 4
	inj := faults.NewInjector(23)
	defer inj.Close()

	spec := hopwireSpec(s)
	spec.LRSConcurrency = 2
	spec.Resilience = &resilience.Policy{
		HopTimeout:  2 * time.Second,
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	spec.NodeMiddleware = func(addr string, h http.Handler) http.Handler {
		if addr == "ia-0" {
			return inj.Middleware(h)
		}
		return h
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if failed := getBatch(t, d, s, 0); failed != 0 {
		t.Fatalf("healthy epoch: %d gets failed", failed)
	}

	inj.Arm(faults.Rule{
		Kind:   faults.KindError,
		Status: http.StatusServiceUnavailable,
		Path:   message.BatchPath,
		Count:  3,
	})
	if failed := getBatch(t, d, s, 1); failed != 0 {
		t.Fatalf("chaos epoch: %d gets failed — ladder did not preserve goodput over frames", failed)
	}
	stats := d.UALayers[0].BatchStats()
	if stats.Retries == 0 || stats.Splits == 0 || stats.Degraded == 0 {
		t.Errorf("ladder did not descend over frames: %+v", stats)
	}

	// Recovery: the batch path resumes on frames.
	before := stats
	if failed := getBatch(t, d, s, 2); failed != 0 {
		t.Fatalf("recovered epoch: %d gets failed", failed)
	}
	if after := d.UALayers[0].BatchStats(); after.Batches <= before.Batches {
		t.Errorf("recovered epoch did not use the batch path: %+v → %+v", before, after)
	}

	cl := d.Client(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Get(ctx, fmt.Sprintf("audit-user-%d-%d", 3, 0)); err != nil {
		t.Fatalf("post-chaos get: %v", err)
	}
}
