package cluster_test

import (
	"context"
	"fmt"
	"net/http"
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
		Hopwire:        true,
	}
}

// TestHopwireClusterEndToEnd runs the full encrypted batch pipeline with
// the binary frame transport on both hops. Every get must succeed, and
// the hop clients' counters must prove the traffic actually rode frames
// rather than silently falling back to HTTP.
func TestHopwireClusterEndToEnd(t *testing.T) {
	const s = 8
	spec := hopwireSpec(s)
	spec.Audit = &audit.Config{}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

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
	if st := uaHop.Stats(); st.Exchanges < epochs || st.Fallbacks != 0 {
		t.Errorf("UA hop stats = %+v, want ≥%d frame exchanges and no fallbacks", st, epochs)
	}
	iaHop := d.IALayers[0].Hopwire()
	if st := iaHop.Stats(); st.Exchanges != epochs*s || st.Fallbacks != 0 {
		t.Errorf("IA hop stats = %+v, want %d frame exchanges and no fallbacks", st, epochs*s)
	}
	// Persistent connections: far fewer dials than exchanges.
	if st := iaHop.Stats(); st.Dials >= st.Exchanges {
		t.Errorf("IA hop dialed per exchange (%d dials / %d exchanges) — pooling broken", st.Dials, st.Exchanges)
	}
	if stats := d.UALayers[0].BatchStats(); stats.Messages != epochs*s || stats.Degraded != 0 {
		t.Errorf("UA batch stats = %+v, want %d messages, none degraded", stats, epochs*s)
	}
	time.Sleep(300 * time.Millisecond) // let the IA hop epochs reach the auditor
	if st := d.Auditor.State(); st != audit.StateOK {
		t.Errorf("auditor state with hopwire = %v, want ok", st)
	}
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
	st := d.UALayers[0].Hopwire().Stats()
	if st.Fallbacks != 0 {
		t.Errorf("crash recovery fell back to HTTP %d times; frames should have resumed", st.Fallbacks)
	}
	if st.Dials < 2 {
		t.Errorf("dials = %d, want ≥2 (a fresh dial after the crash)", st.Dials)
	}
}

// TestHopwireChaosLadderOverFrames injects /batch faults with hopwire on:
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
