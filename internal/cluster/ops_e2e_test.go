package cluster_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
	"pprox/internal/telemetry"
)

func viewNode(r telemetry.FleetReport, name string) (telemetry.NodeStatus, bool) {
	for _, n := range r.Nodes {
		if n.Node == name {
			return n, true
		}
	}
	return telemetry.NodeStatus{}, false
}

// TestOpsFleetTelemetryEndToEnd deploys UA, IA and the LRS engine with
// the auditor and the perf SLO on, and builds pprox-ops top's fleet view
// from two scrapes of the nodes with traffic between them: three nodes up
// with goodput, the merged serve count equal to the nodes' own serve
// counts, the worst-epoch watermark within (0, S], ua-0 in the state
// matrix and no build skew. A killed LRS reads down and fails the gate of
// top -once; restarted, it reads up again.
func TestOpsFleetTelemetryEndToEnd(t *testing.T) {
	const s = 8
	spec := hopwireSpec(s)
	spec.UseStub = false
	spec.Audit = &audit.Config{}
	spec.PerfSLO = &perfslo.Config{}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hc := d.HTTPClient(5 * time.Second)
	targets := []string{"http://ua-0", "http://ia-0", "http://lrs-0"}

	if failed := getBatch(t, d, s, 0); failed != 0 {
		t.Fatalf("epoch 0: %d gets failed", failed)
	}
	prev := telemetry.ScrapeAll(hc, targets)
	start := time.Now()
	for b := 1; b < 3; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("epoch %d: %d gets failed", b, failed)
		}
	}
	cur := telemetry.ScrapeAll(hc, targets)
	if code := telemetry.Gate(prev, cur); code != telemetry.ExitOK && code != telemetry.ExitViolated {
		t.Fatalf("scrape failed: %+v", cur)
	}
	view := telemetry.View(prev, cur, time.Since(start))

	var names []string
	for _, n := range view.Nodes {
		names = append(names, n.Node+"/"+n.Role)
	}
	if want := []string{"ua-0/ua", "ia-0/ia", "lrs-0/lrs"}; !slices.Equal(names, want) || view.Up != 3 {
		t.Fatalf("view nodes = %v (%d up), want %v", names, view.Up, want)
	}
	if view.Rollups.GoodputRPS <= 0 {
		t.Errorf("goodput = %g with traffic between the scrapes", view.Rollups.GoodputRPS)
	}
	if ua, _ := viewNode(view, "ua-0"); ua.Epoch < 3 {
		t.Errorf("ua-0 epoch = %d, want ≥ 3 after three batches of S", ua.Epoch)
	}

	// Every node serves the deployment's one registry, so each scrape
	// holds every node's histograms: the merge must count each node's own
	// once.
	var serves uint64
	for i, n := range []string{"ua-0", "ia-0"} {
		for series, v := range cur[i].Metrics {
			name, labels := metrics.ParseSeries(series)
			if name == telemetry.StageSecondsFamily+"_count" && labels["node"] == n && labels["stage"] == "serve" {
				serves += uint64(v)
			}
		}
	}
	if got := view.Rollups.StageQuantiles["serve"].Count; serves == 0 || got != serves {
		t.Errorf("merged serve count = %d, want the nodes' %d", got, serves)
	}
	if w := view.Rollups.WorstEpochBatch; w <= 0 || w > s {
		t.Errorf("worst epoch batch = %d, want in (0, %d]", w, s)
	}
	if _, ok := view.Rollups.States["ua-0"]; !ok {
		t.Errorf("state matrix missing ua-0: %+v", view.Rollups.States)
	}
	if view.Rollups.BuildSkew {
		t.Errorf("one binary, build skew reported: %v", view.Rollups.BuildSHAs)
	}
	if view.Rollups.LRS == nil {
		t.Error("no LRS rollup from lrs-0")
	}

	// Kill the LRS: it reads down and the -once gate fails.
	if err := d.Kill("lrs-0"); err != nil {
		t.Fatal(err)
	}
	down := telemetry.ScrapeAll(hc, targets)
	if code := telemetry.Gate(cur, down); code != telemetry.ExitFailed {
		t.Errorf("gate with lrs-0 killed = %d, want %d", code, telemetry.ExitFailed)
	}
	view = telemetry.View(cur, down, time.Second)
	if n, ok := viewNode(view, "lrs-0"); !ok || !n.Down || view.Up != 2 {
		t.Errorf("killed lrs-0 = %+v (%d up), want it down beside 2 up", n, view.Up)
	}
	var out strings.Builder
	telemetry.Render(&out, view)
	if !strings.Contains(out.String(), "DOWN") {
		t.Errorf("rendered view shows no DOWN row:\n%s", out.String())
	}

	// Restart: it reads up again.
	if err := d.Restart("lrs-0"); err != nil {
		t.Fatal(err)
	}
	back := telemetry.ScrapeAll(hc, targets)
	view = telemetry.View(down, back, time.Second)
	if n, ok := viewNode(view, "lrs-0"); !ok || n.Down || view.Up != 3 {
		t.Errorf("restarted lrs-0 = %+v (%d up), want all 3 up", n, view.Up)
	}
}
