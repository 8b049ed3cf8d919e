package cluster_test

import (
	"encoding/json"
	"io"
	"slices"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/telemetry"
)

// waitFleet polls the deployed collector until cond accepts a fleet
// report or the deadline passes, returning the last report either way.
func waitFleet(t *testing.T, d *cluster.Deployment, cond func(telemetry.FleetReport) bool, what string) telemetry.FleetReport {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var fleet telemetry.FleetReport
	for time.Now().Before(deadline) {
		fleet = d.Ops.Fleet()
		if cond(fleet) {
			return fleet
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last fleet: %+v", what, fleet)
	return fleet
}

func fleetNode(fleet telemetry.FleetReport, name string) (telemetry.NodeStatus, bool) {
	for _, n := range fleet.Nodes {
		if n.Node == name {
			return n, true
		}
	}
	return telemetry.NodeStatus{}, false
}

// TestOpsFleetTelemetryEndToEnd deploys the full hopwire pipeline with a
// pprox-ops collector, drives traffic, and checks the fleet view: every
// node fresh with sane rollups, a killed node stale within two epochs
// and excluded from rollups, and a restarted node fresh again.
func TestOpsFleetTelemetryEndToEnd(t *testing.T) {
	const s = 8
	spec := hopwireSpec(s)
	spec.Audit = &audit.Config{}
	spec.OpsAddr = "ops-0"
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Ops == nil {
		t.Fatal("deployment with OpsAddr has no collector")
	}

	const epochs = 3
	for b := 0; b < epochs; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("epoch %d: %d gets failed", b, failed)
		}
	}

	// Every node pushes over the in-memory network into the ops node;
	// with heartbeats on, all three report fresh with multiple snapshots.
	fleet := waitFleet(t, d, func(f telemetry.FleetReport) bool {
		if f.Fresh != 3 || f.Stale != 0 {
			return false
		}
		for _, n := range f.Nodes {
			if n.Snapshots < 2 {
				return false
			}
		}
		return f.Rollups.GoodputRPS > 0
	}, "3 fresh nodes with goodput")

	var names []string
	for _, n := range fleet.Nodes {
		names = append(names, n.Node)
		// The snapshots rode the telemetry plane itself — transport
		// counters prove every node's pushes happened.
		if n.Seq == 0 || n.Transport.Pushes == 0 {
			t.Errorf("node %s: seq %d, %d pushes; want both > 0", n.Node, n.Seq, n.Transport.Pushes)
		}
	}
	if want := []string{"ia-0", "lrs-0", "ua-0"}; !slices.Equal(names, want) {
		t.Errorf("fleet nodes = %v, want %v", names, want)
	}
	ua, ok := fleetNode(fleet, "ua-0")
	if !ok || ua.Role != "ua" {
		t.Fatalf("no ua-0 in fleet: %+v", fleet.Nodes)
	}
	if ua.AuditState == "" {
		t.Error("ua-0 reports no audit state despite a deployed auditor")
	}
	if w := fleet.Rollups.WorstEpochBatch; w <= 0 || w > s {
		t.Errorf("worst epoch batch = %d, want in (0, %d]", w, s)
	}
	if q, ok := fleet.Rollups.StageQuantiles["serve"]; !ok || q.Count == 0 {
		t.Errorf("no merged serve-stage quantiles: %+v", fleet.Rollups.StageQuantiles)
	}
	if fleet.Rollups.BuildSkew {
		t.Errorf("one binary, build skew reported: %v", fleet.Rollups.BuildSHAs)
	}
	if _, ok := fleet.Rollups.States["ua-0"]; !ok {
		t.Errorf("state matrix missing ua-0: %+v", fleet.Rollups.States)
	}

	// The same report is served over HTTP on the ops node.
	httpFleet := fetchFleetHTTP(t, d, spec.OpsAddr)
	if len(httpFleet.Nodes) != 3 {
		t.Errorf("/fleet over HTTP lists %d nodes, want 3", len(httpFleet.Nodes))
	}

	// Kill the LRS: its emitter pauses with it, and silence past two
	// epoch gaps turns it stale — excluded from rollups while the UA and
	// IA heartbeats keep those fresh.
	if err := d.Kill("lrs-0"); err != nil {
		t.Fatal(err)
	}
	fleet = waitFleet(t, d, func(f telemetry.FleetReport) bool {
		n, ok := fleetNode(f, "lrs-0")
		return ok && n.Stale && f.Fresh == 2
	}, "killed lrs-0 stale with 2 fresh")
	if _, ok := fleet.Rollups.States["lrs-0"]; ok {
		t.Error("stale lrs-0 still in the rollup state matrix")
	}

	// Restart: the resumed emitter pushes immediately, clearing
	// staleness within one push rather than one epoch.
	if err := d.Restart("lrs-0"); err != nil {
		t.Fatal(err)
	}
	waitFleet(t, d, func(f telemetry.FleetReport) bool {
		n, ok := fleetNode(f, "lrs-0")
		return ok && !n.Stale && f.Fresh == 3
	}, "restarted lrs-0 fresh again")
}

// fetchFleetHTTP reads the ops node's /fleet endpoint through the
// deployment's network.
func fetchFleetHTTP(t *testing.T, d *cluster.Deployment, opsAddr string) telemetry.FleetReport {
	t.Helper()
	cl := d.HTTPClient(5 * time.Second)
	resp, err := cl.Get("http://" + opsAddr + telemetry.FleetPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /fleet = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fleet telemetry.FleetReport
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatalf("decode /fleet: %v", err)
	}
	return fleet
}

// TestOpsCollectorSurvivesDeploymentTeardown: Close flushes every
// emitter's final snapshot before node listeners die, and the ops node
// (brought up first) is torn down last so those flushes land.
func TestOpsCollectorSurvivesDeploymentTeardown(t *testing.T) {
	const s = 4
	spec := hopwireSpec(s)
	spec.OpsAddr = "ops-0"
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if failed := getBatch(t, d, s, 0); failed != 0 {
		t.Fatalf("%d gets failed", failed)
	}
	waitFleet(t, d, func(f telemetry.FleetReport) bool {
		return len(f.Nodes) == 3
	}, "3 nodes reporting")
	before := d.Ops.Fleet()
	seqs := make(map[string]uint64, len(before.Nodes))
	for _, n := range before.Nodes {
		seqs[n.Node] = n.Seq
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	after := d.Ops.Fleet()
	if len(after.Nodes) != len(before.Nodes) {
		t.Fatalf("nodes after teardown = %d, want %d", len(after.Nodes), len(before.Nodes))
	}
	for _, n := range after.Nodes {
		if n.Seq <= seqs[n.Node] {
			t.Errorf("node %s: no final flush at teardown (seq %d, was %d)", n.Node, n.Seq, seqs[n.Node])
		}
	}
}

// TestOpsAddrCollision rejects an ops address that shadows a node.
func TestOpsAddrCollision(t *testing.T) {
	spec := hopwireSpec(4)
	spec.OpsAddr = "ua-0"
	if _, err := cluster.Deploy(spec); err == nil {
		t.Fatal("Deploy accepted OpsAddr colliding with a node address")
	}
}
