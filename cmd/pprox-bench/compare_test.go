package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// healthyReport fabricates a quiet baseline snapshot.
func healthyReport() BenchReport {
	rep := newBenchReport("batch")
	rep.GoodputTrials = newTrialStats([]float64{950, 1000, 1050})
	rep.GoodputRPS = rep.GoodputTrials.BestRPS
	rep.Latency = LatencyQuantiles{P50MS: 10, P95MS: 30, P99MS: 60}
	rep.UACrossingsPerRequest = 0.04
	rep.AllocsPerOp = map[string]AllocStat{
		"crypto_pseudonymize": {NsPerOp: 500, AllocsPerOp: 4, BytesPerOp: 128},
	}
	rep.AuditState = "ok"
	rep.PerfSLOState = "ok"
	return rep
}

func regressionTexts(t *testing.T, old, nu BenchReport) []string {
	t.Helper()
	return compareReports(old, nu, defaultCompareOpts(), os.Stdout)
}

func wantRegression(t *testing.T, regs []string, substr string) {
	t.Helper()
	for _, r := range regs {
		if strings.Contains(r, substr) {
			return
		}
	}
	t.Errorf("no regression mentioning %q in %q", substr, regs)
}

func TestCompareAcceptsEqualReports(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	if regs := regressionTexts(t, old, nu); len(regs) != 0 {
		t.Fatalf("identical reports flagged: %q", regs)
	}
}

func TestCompareFlagsP99AndGoodputRegression(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	nu.Latency.P99MS = 400 // old 60: past 2×+50ms slack
	nu.GoodputTrials = newTrialStats([]float64{400, 420, 440})
	regs := regressionTexts(t, old, nu)
	wantRegression(t, regs, "p99")
	wantRegression(t, regs, "goodput")
}

func TestCompareSkipsTimingChecksOnNoisyRun(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	// Same degraded timings, but the new run's trials disagree wildly:
	// (max-min)/median = 600/500 > 0.35, so timing verdicts are skipped.
	nu.Latency.P99MS = 400
	nu.GoodputTrials = newTrialStats([]float64{200, 500, 800})
	if regs := regressionTexts(t, old, nu); len(regs) != 0 {
		t.Fatalf("noisy run should skip timing checks, got %q", regs)
	}
}

func TestCompareFlagsHostIndependentRegressions(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	nu.PerfSLOState = "violated"
	nu.UACrossingsPerRequest = 0.5 // batching broke
	nu.AllocsPerOp["crypto_pseudonymize"] = AllocStat{NsPerOp: 500, AllocsPerOp: 9, BytesPerOp: 128}
	regs := regressionTexts(t, old, nu)
	wantRegression(t, regs, "perf SLO")
	wantRegression(t, regs, "crossings")
	wantRegression(t, regs, "allocs/op")
}

func TestCompareFlagsScenarioMismatch(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	nu.Scenario = "cache"
	wantRegression(t, regressionTexts(t, old, nu), "scenario mismatch")
}

func TestCompareFlagsLRSGetsGrowth(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	o, n := 0.30, 0.60
	old.LRSGetsPerRequest, nu.LRSGetsPerRequest = &o, &n
	wantRegression(t, regressionTexts(t, old, nu), "LRS gets/request")
}

func TestCompareGatesIncrementalSpeedup(t *testing.T) {
	old, nu := healthyReport(), healthyReport()
	o, n := 300.0, 6.0
	old.IncrementalSpeedup, nu.IncrementalSpeedup = &o, &n
	wantRegression(t, regressionTexts(t, old, nu), "incremental speedup")

	// At or above the floor it passes even when lower than the baseline:
	// the floor is the contract, the baseline is context.
	ok := 12.0
	nu.IncrementalSpeedup = &ok
	if regs := regressionTexts(t, old, nu); len(regs) != 0 {
		t.Fatalf("above-floor speedup flagged: %q", regs)
	}

	// Dropping the measurement entirely is itself a regression.
	nu.IncrementalSpeedup = nil
	wantRegression(t, regressionTexts(t, old, nu), "missing")
}

func TestBenchReportRoundTripAndSchemaCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_batch.json")
	rep := healthyReport()
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != benchSchema || got.Scenario != "batch" ||
		got.GoodputTrials.MedianRPS != 1000 || got.Latency.P99MS != 60 {
		t.Fatalf("round trip mangled report: %+v", got)
	}
	if got.GitSHA == "" || got.GoVersion == "" {
		t.Fatalf("build identity missing: sha=%q go=%q", got.GitSHA, got.GoVersion)
	}

	bad := rep
	bad.Schema = "pprox-bench/999"
	badPath := filepath.Join(dir, "bad.json")
	if err := bad.write(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(badPath); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	old, nu := healthyReport(), healthyReport()
	if err := old.write(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := nu.write(newPath); err != nil {
		t.Fatal(err)
	}
	if code := runCompare([]string{oldPath, newPath}); code != 0 {
		t.Fatalf("healthy compare exit = %d, want 0", code)
	}

	nu.Latency.P99MS = 1000
	if err := nu.write(newPath); err != nil {
		t.Fatal(err)
	}
	if code := runCompare([]string{oldPath, newPath}); code != 3 {
		t.Fatalf("regressed compare exit = %d, want 3", code)
	}

	if code := runCompare([]string{oldPath}); code != 2 {
		t.Fatalf("missing-arg compare exit = %d, want 2", code)
	}
	if code := runCompare([]string{oldPath, filepath.Join(dir, "nope.json")}); code != 2 {
		t.Fatalf("unreadable-file compare exit = %d, want 2", code)
	}
}

// TestCompareDetectsInjectedLatencyFault is the acceptance drill for the
// perf-trajectory gate: the same batch workload is driven once healthy
// and once through a latency fault on the LRS (the -inject-fault path),
// and compare must flag the induced p99 regression.
func TestCompareDetectsInjectedLatencyFault(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two in-process deployments")
	}
	const s, epochs = 8, 5
	healthy, err := driveBatchTrial(s, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.failed > 0 {
		t.Fatalf("healthy trial had %d failures", healthy.failed)
	}
	faulted, err := driveBatchTrial(s, epochs, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.failed > 0 {
		t.Fatalf("faulted trial had %d failures", faulted.failed)
	}

	allocs := map[string]AllocStat{"crypto_pseudonymize": {AllocsPerOp: 4}}
	base := buildBatchReport(s, epochs, 1, []float64{healthy.throughput()}, healthy, 0, allocs)
	regressed := buildBatchReport(s, epochs, 1, []float64{faulted.throughput()}, faulted, 300*time.Millisecond, allocs)

	regs := compareReports(base, regressed, defaultCompareOpts(), os.Stdout)
	wantRegression(t, regs, "p99")
	wantRegression(t, regs, "inject-fault")
	if !regressed.FaultInjected {
		t.Error("faulted report not marked fault_injected")
	}

	// Sanity on the snapshot itself: per-stage quantiles were scraped
	// and the IA forward stage shows the injected delay.
	fwd, ok := regressed.Stages["ia"]["forward"]
	if !ok {
		t.Fatal("faulted report has no ia/forward stage row")
	}
	if fwd.P95MS >= 0 && fwd.P95MS < 250 {
		t.Errorf("ia forward p95 = %.1fms, expected ≥ injected 300ms bucket", fwd.P95MS)
	}
}
