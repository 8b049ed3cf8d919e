package telemetry

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
	"pprox/internal/stub"
)

// proxyScrape is a proxy node's exposition as a process serves it: its
// own series labelled with its node name, served counter at served.
func proxyScrape(target, node, layer string, served, flushes float64) Scrape {
	return Scrape{Target: target, Metrics: metrics.ScrapeSet{
		fmt.Sprintf(`pprox_proxy_requests_served_total{layer=%q,node=%q}`, layer, node): served,
		fmt.Sprintf(`pprox_proxy_shuffle_flushes_total{layer=%q,node=%q}`, layer, node): flushes,
		`pprox_build_info{version="v",go_version="go",git_sha="abc"}`:                   1,
	}}
}

// TestGoodputAndWorstBatch pins the rate and watermark computations:
// goodput is the served-counter growth between two scrapes over the
// operator's clock, a restarted node's counters count from zero, and the
// watermark is the smallest audit gauge any node exports.
func TestGoodputAndWorstBatch(t *testing.T) {
	prev := []Scrape{
		proxyScrape("http://10.0.0.1:8081", "ua", "UA", 100, 12),
		proxyScrape("http://10.0.0.2:8082", "ia", "IA", 100, 12),
	}
	cur := []Scrape{
		proxyScrape("http://10.0.0.1:8081", "ua", "UA", 180, 22),
		proxyScrape("http://10.0.0.2:8082", "ia", "IA", 30, 3), // restarted
	}
	cur[0].Metrics["pprox_audit_worst_epoch_batch"] = 6
	cur[1].Metrics["pprox_audit_worst_epoch_batch"] = 5
	r := View(prev, cur, 2*time.Second)

	if got := r.Nodes[0]; got.Node != "ua" || got.Role != "ua" || got.GoodputRPS != 40 || got.Epoch != 22 {
		t.Errorf("ua row = %+v, want node ua, role ua, 40 rps, epoch 22", got)
	}
	if got := r.Nodes[1].GoodputRPS; got != 15 {
		t.Errorf("restarted ia goodput = %g, want 15 (30 served since its restart over 2s)", got)
	}
	// The UA's goodput is the fleet's: the IA serves the same requests.
	if got := r.Rollups.GoodputRPS; got != 40 {
		t.Errorf("fleet goodput = %g, want the UA's 40", got)
	}
	if got := r.Rollups.WorstEpochBatch; got != 5 {
		t.Errorf("worst epoch batch = %d, want 5", got)
	}
	if r.Rollups.BuildSkew || len(r.Rollups.BuildSHAs) != 1 {
		t.Errorf("one build reported as %v (skew %v)", r.Rollups.BuildSHAs, r.Rollups.BuildSkew)
	}

	// Without a first round, goodput is unknown and reads 0.
	if got := View(nil, cur, 0).Rollups.GoodputRPS; got != 0 {
		t.Errorf("goodput from one scrape = %g, want 0", got)
	}
}

// TestScopeKeepsTheNodesOwnSeries: in-process nodes share one registry,
// so each target's exposition holds every node's series. The view keeps
// a target's own series, by the node label its host names, and the
// unlabelled ones: goodput and merged stage counts are not counted once
// per target.
func TestScopeKeepsTheNodesOwnSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	served := reg.CounterVec("pprox_proxy_requests_served_total", "served", "layer", "node")
	stage := reg.HistogramVec("pprox_proxy_stage_seconds", "stage", nil, "layer", "node", "stage")
	served.With("UA", "ua-0").Add(4)
	served.With("UA", "ua-1").Add(9)
	stage.With("UA", "ua-0", "serve").Observe(0.01)
	stage.With("UA", "ua-1", "serve").Observe(0.01)
	stage.With("UA", "ua-1", "serve").Observe(0.01)
	reg.CounterFunc("pprox_lrs_queries_total", "queries", func() float64 { return 7 })
	set := metrics.ScrapeSet(reg.Snapshot())

	round := []Scrape{
		{Target: "http://ua-0", Metrics: set},
		{Target: "http://ua-1", Metrics: set},
		{Target: "http://lrs-0", Metrics: set},
	}
	r := View(round, round, time.Second)
	for i, want := range []struct{ node, role string }{{"ua-0", "ua"}, {"ua-1", "ua"}, {"lrs-0", "lrs"}} {
		if got := r.Nodes[i]; got.Node != want.node || got.Role != want.role {
			t.Errorf("row %d = %s/%s, want %s/%s", i, got.Node, got.Role, want.node, want.role)
		}
	}
	if got := r.Rollups.StageQuantiles["serve"].Count; got != 3 {
		t.Errorf("merged serve count = %d, want 3 (one per observation, not per target)", got)
	}
	if r.Rollups.LRS == nil {
		t.Error("no LRS rollup from lrs-0")
	}
}

// TestDownNodeLeavesTheRollups: a target that stops answering reads down
// under the name the previous round knew it by, and its last-known
// states and counters drop out of every rollup.
func TestDownNodeLeavesTheRollups(t *testing.T) {
	ua := proxyScrape("http://10.0.0.1:8081", "ua-0", "UA", 10, 1)
	ua.Privacy = &audit.Report{State: audit.StateOK.String()}
	lrs := Scrape{Target: "http://10.0.0.3:8080", Metrics: metrics.ScrapeSet{
		`pprox_lrs_queries_total`: 10, `pprox_lrs_request_seconds_count{node="lrs-0",path="/queries"}`: 10,
	}, Privacy: &audit.Report{State: audit.StateViolated.String()}}
	prev := []Scrape{ua, lrs}
	cur := []Scrape{ua, {Target: lrs.Target, Err: errors.New("connection refused")}}

	r := View(prev, cur, time.Second)
	if r.Up != 1 || r.Down != 1 {
		t.Fatalf("up %d down %d, want 1/1", r.Up, r.Down)
	}
	if got := r.Nodes[1]; !got.Down || got.Node != "lrs-0" || got.Role != "lrs" {
		t.Errorf("down row = %+v, want lrs-0 (lrs) down", got)
	}
	if _, ok := r.Rollups.States["lrs-0"]; ok || r.Rollups.LRS != nil {
		t.Errorf("down node still in the rollups: states %v, lrs %+v", r.Rollups.States, r.Rollups.LRS)
	}
	if got := Gate(prev, cur); got != ExitFailed {
		t.Errorf("Gate with a failed scrape = %d, want %d", got, ExitFailed)
	}
	if got := Gate(prev); got != ExitViolated {
		t.Errorf("Gate with a violated node = %d, want %d", got, ExitViolated)
	}
	if got := Gate(cur[:1]); got != ExitOK {
		t.Errorf("Gate of a healthy node = %d, want %d", got, ExitOK)
	}
}

// TestLRSRollup: LRS training series of the LRS nodes sum into
// the fleet view; a fleet without an LRS node carries no rollup at all.
func TestLRSRollup(t *testing.T) {
	lrs := func(target string, shards, train, applied float64) Scrape {
		return Scrape{Target: target, Metrics: metrics.ScrapeSet{
			"pprox_lrs_queries_total":        1,
			"pprox_lrs_shards":               shards,
			"pprox_lrs_train_seconds":        train,
			"pprox_lrs_events_applied_total": applied,
		}}
	}
	round := []Scrape{
		lrs("http://lrs-0", 4, 0.8, 1000),
		lrs("http://lrs-1", 2, 2.5, 500),
		proxyScrape("http://ua-0", "ua-0", "UA", 1, 1),
	}
	got := View(nil, round, 0).Rollups.LRS
	want := LRSRollup{Shards: 6, TrainSeconds: 2.5, EventsApplied: 1500}
	if got == nil || *got != want {
		t.Fatalf("LRS rollup = %+v, want %+v", got, want)
	}
	if View(nil, round[2:], 0).Rollups.LRS != nil {
		t.Error("LRS rollup invented for a fleet with no LRS node")
	}
}

// TestScrapeNodeOptionalRoutes: /privacy and /perf are optional
// only as far as a 404 goes. A node that answers them is read, and one
// that fails them in any other way fails the scrape: a 503 on /perf must
// not read as "no perf SLO".
func TestScrapeNodeOptionalRoutes(t *testing.T) {
	perfStatus := http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			fmt.Fprintln(w, `pprox_proxy_requests_served_total{layer="UA",node="ua"} 3`)
			// An audit series without /privacy: a neighbour's, as in a
			// shared in-process registry.
			fmt.Fprintln(w, `pprox_audit_slo_state 0`)
			fmt.Fprintln(w, `pprox_perfslo_state 2`)
		case perfslo.PerfPath:
			w.WriteHeader(perfStatus)
			fmt.Fprint(w, `{"state":"violated"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	s := ScrapeNode(srv.Client(), srv.URL+"/")
	if s.Err != nil {
		t.Fatal(s.Err)
	}
	if s.Privacy != nil || s.Perf == nil || s.Perf.State != "violated" {
		t.Errorf("scrape = privacy %v, perf %+v", s.Privacy, s.Perf)
	}
	if got := View(nil, []Scrape{s}, 0).Nodes[0].Role; got != "ua" {
		t.Errorf("the node's role = %q, want ua", got)
	}

	perfStatus = http.StatusServiceUnavailable
	if s := ScrapeNode(srv.Client(), srv.URL); s.Err == nil {
		t.Error("a 503 on /perf did not fail the scrape")
	}
	if s := ScrapeNode(srv.Client(), srv.URL+"/missing"); s.Err == nil {
		t.Error("a node without /metrics scraped")
	}
}

// TestScrapeProbesOnlyExportedEngines: a node whose /metrics carries no
// audit or perf-SLO series is not asked for /privacy or /perf, so
// scraping a stub leaves its request histograms as they were.
func TestScrapeProbesOnlyExportedEngines(t *testing.T) {
	st, err := stub.New(3)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	st.RegisterMetrics(reg, "stub-0")
	srv := httptest.NewServer(metrics.MuxRoutes(reg, st.Health, nil, st))
	defer srv.Close()

	other := func(s Scrape) float64 {
		for series, v := range s.Metrics {
			if name, labels := metrics.ParseSeries(series); name == "pprox_lrs_request_seconds_count" && labels["path"] == "other" {
				return v
			}
		}
		t.Fatalf("no other-path histogram in %v", s.Metrics)
		return 0
	}
	first := ScrapeNode(srv.Client(), srv.URL)
	second := ScrapeNode(srv.Client(), srv.URL)
	if first.Err != nil || second.Err != nil {
		t.Fatal(first.Err, second.Err)
	}
	if a, b := other(first), other(second); a != 0 || b != 0 {
		t.Errorf("other-path requests across two scrapes = %g, %g; want 0, 0", a, b)
	}
	if second.Privacy != nil || second.Perf != nil {
		t.Errorf("stub scrape read privacy %v, perf %v", second.Privacy, second.Perf)
	}
}
