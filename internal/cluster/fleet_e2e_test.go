package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/autoscale"
	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/fleet"
	"pprox/internal/message"
	"pprox/internal/proxy"
	"pprox/internal/telemetry"
	"pprox/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetScaleLifecycle walks one full elastic cycle by hand: a fleet
// deployment comes up with its static capacity routable, AddPair holds
// the new pair PENDING until a shuffle-epoch boundary admits it, and
// DrainPair retires it cleanly — epoch flushed whole, auditor still ok.
func TestFleetScaleLifecycle(t *testing.T) {
	const s = 4
	// Batch mode so epochs travel whole: with several IA backends behind
	// the balancer, per-message forwarding would spread one UA epoch
	// across them and each IA would release an underfilled epoch of its
	// own (see DESIGN §4j).
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		Fleet:          true,
		Audit:          &audit.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if got := d.Balancer.Backends("ua"); len(got) != 1 || got[0] != "ua-0" {
		t.Fatalf("initial ua backends = %v, want [ua-0]", got)
	}
	if d.Pairs() != 1 {
		t.Fatalf("initial pairs = %d, want 1", d.Pairs())
	}

	// Scale up: the new pair registers but stays pending — and invisible
	// to the balancer — until an epoch boundary.
	if err := d.AddPair(); err != nil {
		t.Fatal(err)
	}
	if n := d.Registry.Count("ua", fleet.StatePending); n != 1 {
		t.Fatalf("pending UA endpoints after AddPair = %d, want 1", n)
	}
	if got := d.Balancer.Backends("ua"); len(got) != 1 {
		t.Fatalf("pending pair leaked into routable set: %v", got)
	}
	if d.Pairs() != 2 { // pending counts as capacity under way
		t.Fatalf("pairs after AddPair = %d, want 2", d.Pairs())
	}

	// One full epoch through ua-0: its flush is the boundary that admits
	// the pending pair.
	if failed := getBatch(t, d, s, 1); failed != 0 {
		t.Fatalf("%d of %d requests failed", failed, s)
	}
	waitFor(t, "pair admission at epoch boundary", func() bool {
		return d.Registry.Count("ua", fleet.StateActive) == 2 &&
			d.Registry.Count("ia", fleet.StateActive) == 2
	})
	if got := d.Balancer.Backends("ua"); len(got) != 2 {
		t.Fatalf("ua backends after admission = %v, want 2", got)
	}

	// Scale down: the newest pair drains at an epoch boundary and leaves
	// without splitting an epoch.
	if err := d.DrainPair(); err != nil {
		t.Fatal(err)
	}
	if d.Pairs() != 1 {
		t.Fatalf("pairs after drain = %d, want 1", d.Pairs())
	}
	if got := d.Balancer.Backends("ua"); len(got) != 1 || got[0] != "ua-0" {
		t.Fatalf("ua backends after drain = %v, want [ua-0]", got)
	}
	stats := d.Registry.Stats()
	if stats.Drains != 2 || stats.Deregistrations != 2 {
		t.Fatalf("registry stats after drain = %+v, want 2 drains and 2 deregistrations", stats)
	}
	if st := d.Auditor.State(); st.String() != "ok" {
		t.Fatalf("audit state after clean drain = %s, want ok\nreport: %+v", st, d.Auditor.Report())
	}
	ov := d.FleetOverview()
	if ov == nil || ov.CurrentPairs != 1 {
		t.Fatalf("fleet overview = %+v, want 1 current pair", ov)
	}

	// The retired instances' drain reports stay consultable (and clean).
	if failed := getBatch(t, d, s, 2); failed != 0 {
		t.Fatalf("%d requests failed after drain", failed)
	}
	if st := d.Auditor.State(); st.String() != "ok" {
		t.Fatalf("audit state after post-drain traffic = %s, want ok", st)
	}
}

// TestElasticReconcilerClosesLoop drives the full autoscaling loop with
// manual ticks: load pushes the desired pair count up (AddPair), idleness
// brings it back down (DrainPair), and the operator's scrape of the UA
// shows its goodput after the drain. The auditor reads ok through every
// phase: a pair joins and leaves at epoch boundaries, never splitting an
// epoch.
func TestElasticReconcilerClosesLoop(t *testing.T) {
	const s = 4
	// A vanishingly small pair capacity makes any traffic demand Max
	// pairs and zero traffic demand Min — the decisions under test
	// become deterministic regardless of wall-clock jitter.
	ctrl := &autoscale.Controller{
		PairCapacityRPS:   0.001,
		TargetUtilization: 1,
		Min:               1,
		Max:               2,
		Hysteresis:        1,
	}
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 300 * time.Millisecond, // a round's gets all arrive, even under -race
		UseStub:        true,
		Audit:          &audit.Config{},
		Elastic:        &cluster.ElasticSpec{Controller: ctrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Reconciler
	if rec == nil {
		t.Fatal("elastic deployment has no reconciler")
	}

	// Keep-alives off so every request dials: the balancer's per-dial
	// round robin then splits each two-pair round exactly S/S across the
	// UAs, and every shuffler flushes on occupancy, never on the timer.
	cl := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{DialContext: d.Balancer.DialContext, DisableKeepAlives: true},
	}, d.Entry)
	round := func(size, tag int) {
		t.Helper()
		var wg sync.WaitGroup
		var failed atomic.Int64
		for i := 0; i < size; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := cl.Get(ctx, fmt.Sprintf("scale-user-%d-%d", tag, i)); err != nil {
					failed.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := failed.Load(); n != 0 {
			t.Fatalf("round %d: %d of %d requests failed", tag, n, size)
		}
	}
	auditOK := func(phase string) {
		t.Helper()
		if st := d.Auditor.State(); st != audit.StateOK {
			t.Fatalf("audit state %s %s, want ok\nreport: %+v", st, phase, d.Auditor.Report())
		}
	}

	// Baseline on one pair. Signals are window deltas, so the first
	// sample knows nothing and the reconciler must hold.
	round(s, 0)
	if dec := rec.Tick(); dec.Action != fleet.ActionHold {
		t.Fatalf("first tick = %+v, want hold", dec)
	}
	auditOK("at baseline")

	// Load, then tick: the observed rate demands a second pair.
	round(s, 1)
	dec := rec.Tick()
	if dec.Action != fleet.ActionUp || dec.Desired != 2 {
		t.Fatalf("tick under load = %+v, want scale-up to 2", dec)
	}

	// The next epoch boundary admits the pending pair.
	round(s, 2)
	waitFor(t, "second pair admission", func() bool {
		return d.Registry.Count("ua", fleet.StateActive) == 2 &&
			d.Registry.Count("ia", fleet.StateActive) == 2
	})

	// Two-pair traffic: every round fills one epoch on each UA.
	round(2*s, 3)
	round(2*s, 4)
	rec.Tick() // consumes the loaded window: desired == current, hold
	auditOK("under two-pair traffic")

	// Idleness: the next sampled window sees no traffic, and the loop
	// drains back to Min.
	time.Sleep(120 * time.Millisecond)
	dec = rec.Tick()
	if dec.Action != fleet.ActionDown || dec.Desired != 1 {
		t.Fatalf("idle tick = %+v, want scale-down to 1", dec)
	}
	if d.Pairs() != 1 {
		t.Fatalf("pairs after scale-down = %d, want 1", d.Pairs())
	}
	if st := d.Registry.Stats(); st.Drains != 2 || st.Deregistrations != 2 {
		t.Fatalf("registry stats after scale-down = %+v, want 2 drains and 2 deregistrations", st)
	}
	auditOK("after the drain")

	ov := d.FleetOverview()
	if ov == nil || ov.CurrentPairs != 1 || ov.DesiredPairs != 1 {
		t.Fatalf("fleet overview = %+v, want 1/1 pairs", ov)
	}
	var up, down bool
	for _, dd := range ov.Decisions {
		up = up || dd.Action == fleet.ActionUp
		down = down || dd.Action == fleet.ActionDown
	}
	if !up || !down {
		t.Fatalf("decision ring %+v missing scale-up or scale-down", ov.Decisions)
	}

	// Goodput recovers on the remaining pair: the operator's two scrapes
	// of ua-0 around the post-drain rounds see it serve.
	hc := d.HTTPClient(5 * time.Second)
	targets := []string{"http://ua-0"}
	before := telemetry.ScrapeAll(hc, targets)
	start := time.Now()
	round(s, 5)
	round(s, 6)
	auditOK("after post-drain traffic")
	view := telemetry.View(before, telemetry.ScrapeAll(hc, targets), time.Since(start))
	fv := d.FleetOverview()
	if view.Rollups.GoodputRPS <= 0 || fv == nil || fv.CurrentPairs != 1 || fv.DesiredPairs != 1 {
		t.Fatalf("after the drain: goodput %g, fleet %+v; want goodput and 1/1 pairs\n%+v",
			view.Rollups.GoodputRPS, fv, view.Nodes)
	}
	ups, downs := 0, 0
	for _, dd := range fv.Decisions {
		switch dd.Action {
		case fleet.ActionUp:
			ups++
		case fleet.ActionDown:
			downs++
		}
	}
	if ups != 1 || downs != 1 {
		t.Errorf("fleet decisions %+v, want one scale-up and one scale-down", fv.Decisions)
	}
}

// TestDrainPairSoftPhaseOverFrames retires a pair under steady traffic on
// frames. The drained IA answers Connection: close, its frame links close
// after that reply and the UAs redial through the balancer, so each link
// carries at most one frame once the drain began and the IA goes idle:
// DrainPair finishes in the soft phase — no frame refused — with a clean
// report, and every request succeeds.
func TestDrainPairSoftPhaseOverFrames(t *testing.T) {
	const s = 2
	var victim atomic.Pointer[proxy.Layer]
	var late, refused atomic.Int64
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             2,
		IA:             2,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 500 * time.Millisecond,
		UseStub:        true,
		StubDelay:      30 * time.Millisecond,
		Fleet:          true,
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr != "ia-1" { // the newest pair is the drain victim
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if l := victim.Load(); r.URL.Path == message.BatchPath && l != nil && l.Draining() {
					late.Add(1)
				}
				sw := &statusWriter{ResponseWriter: w}
				h.ServeHTTP(sw, r)
				if sw.status == http.StatusServiceUnavailable {
					refused.Add(1)
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	victim.Store(d.IALayers[1])
	uas := append([]*proxy.Layer(nil), d.UALayers...)

	// Steady closed-loop traffic through the surviving UA, with enough
	// concurrent epochs that it holds frame links to both IAs and keeps
	// the victim busy.
	cl := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), transport.HTTPClient(d.Net, 10*time.Second), "http://ua-0")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent, failed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if _, err := cl.Get(ctx, fmt.Sprintf("drain-%d-%d", w, i)); err != nil {
					failed.Add(1)
				}
				cancel()
				sent.Add(1)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	waitFor(t, "frames at both IAs", func() bool {
		return d.IALayers[0].BatchStats().Batches > 4 && d.IALayers[1].BatchStats().Batches > 4
	})
	var links uint64
	for _, ua := range uas {
		links += ua.Hopwire().Stats().Dials
	}
	// One get parked in the victim UA's shuffler: the drain waits out its
	// flush timer, while the survivor keeps sending epochs.
	parked := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), transport.HTTPClient(d.Net, 10*time.Second), "http://ua-1")
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := parked.Get(context.Background(), "parked"); err != nil {
			failed.Add(1)
		}
	}()
	waitFor(t, "a get parked on the victim UA", func() bool { return uas[1].Shuffler().Pending() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := d.DrainPairContext(ctx); err != nil {
		t.Fatalf("DrainPair under traffic: %v", err)
	}
	if ctx.Err() != nil {
		t.Error("the drain ran into the hard phase: the soft phase never emptied the IA")
	}
	if n := refused.Load(); n != 0 {
		t.Errorf("the drained IA refused %d frames; the soft phase should have sufficed", n)
	}
	if n := late.Load(); n > int64(links) {
		t.Errorf("the drained IA received %d frames after its drain began over at most %d frame links; each link should carry at most one", n, links)
	}

	// Traffic keeps flowing on the surviving pair.
	before := sent.Load()
	waitFor(t, "traffic on the surviving pair", func() bool { return sent.Load() > before+8 })
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d gets failed across the drain", n, sent.Load())
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}
