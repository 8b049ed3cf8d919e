package cluster_test

import (
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/autoscale"
	"pprox/internal/cluster"
	"pprox/internal/fleet"
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
// brings it back down (DrainPair), and the fleet view reaches the
// telemetry collector.
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
		ProxyEnabled:      true,
		UA:                1,
		IA:                1,
		Encryption:        true,
		ItemPseudonyms:    true,
		Shuffle:           s,
		ShuffleTimeout:    100 * time.Millisecond,
		UseStub:           true,
		Elastic:           &cluster.ElasticSpec{Controller: ctrl},
		OpsAddr:           "ops",
		TelemetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Reconciler
	if rec == nil {
		t.Fatal("elastic deployment has no reconciler")
	}

	// First tick: signals are window deltas, so the first sample knows
	// nothing and the reconciler must hold.
	if dec := rec.Tick(); dec.Action != fleet.ActionHold {
		t.Fatalf("first tick = %+v, want hold", dec)
	}

	// Load, then tick: the observed rate demands a second pair.
	if failed := getBatch(t, d, 2*s, 1); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	dec := rec.Tick()
	if dec.Action != fleet.ActionUp || dec.Desired != 2 {
		t.Fatalf("tick under load = %+v, want scale-up to 2", dec)
	}

	// Sustained load admits the pending pair at an epoch boundary.
	if failed := getBatch(t, d, 2*s, 2); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	rec.Tick()
	waitFor(t, "second pair admission", func() bool {
		return d.Registry.Count("ua", fleet.StateActive) == 2
	})

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

	// The control-plane emitter carries the fleet view to the collector.
	waitFor(t, "fleet view at the collector", func() bool {
		fv := d.Ops.Fleet().Rollups.Fleet
		return fv != nil && fv.CurrentPairs == 1
	})
}
