package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/metrics"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/slo"
	"pprox/internal/telemetry"
)

// TestPerfSLOFlagsInjectedLatencyRegression is the performance
// observatory's end-to-end drill: a latency fault on the LRS inflates
// the IA→LRS forward stage past its objective, and the deployed
// evaluator must transition to violated — observable through the same
// /metrics and /perf endpoints an operator scrapes — while the
// harvester captures a profile into the ring. One number names an epoch
// everywhere: each breach exemplar is an epoch record holding the
// over-threshold forwards, the profile's meta.json names an exemplar, and
// each proxy's EPOCH in the operator's fleet view is its latest record.
func TestPerfSLOFlagsInjectedLatencyRegression(t *testing.T) {
	const s = 4
	inj := faults.NewInjector(1)
	defer inj.Close()
	profileDir := t.TempDir()

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 50 * time.Millisecond,
		UseStub:        true,
		Trace:          true,
		PerfSLO: &perfslo.Config{
			Windows: []slo.Window{
				{Name: "500ms", Duration: 500 * time.Millisecond, Burn: 1},
				{Name: "2s", Duration: 2 * time.Second, Burn: 1},
			},
		},
		ProfileDir: profileDir,
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr == "lrs-0" {
				return inj.Middleware(h)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for b := 0; b < 3; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("healthy batch %d: %d gets failed", b, failed)
		}
	}
	if st := d.PerfSLO.State(); st != perfslo.StateOK {
		t.Fatalf("perf SLO state after healthy traffic = %v, want ok", st)
	}

	// Every LRS response now takes 400ms: the IA forward stage blows
	// through its 250ms default objective on every request.
	inj.Arm(faults.Rule{Kind: faults.KindLatency, Delay: 400 * time.Millisecond})
	for b := 3; b < 6; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("slow batch %d: %d gets failed", b, failed)
		}
	}

	if st := d.PerfSLO.State(); st != perfslo.StateViolated {
		t.Fatalf("perf SLO state after latency fault = %v, want violated", st)
	}

	// The operator's view over the wire: /metrics and /perf on any node.
	httpClient := d.HTTPClient(5 * time.Second)
	resp0, err := httpClient.Get("http://ua-0/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := metrics.ParseExposition(string(body))
	if v := scraped["pprox_perfslo_state"]; v != float64(perfslo.StateViolated) {
		t.Errorf("pprox_perfslo_state = %g, want %d", v, perfslo.StateViolated)
	}
	if v := scraped["pprox_perfslo_violations_total"]; v < 1 {
		t.Errorf("pprox_perfslo_violations_total = %g, want ≥ 1", v)
	}

	resp, err := httpClient.Get("http://ia-0" + perfslo.PerfPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep perfslo.Report
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != perfslo.StateViolated.String() {
		t.Errorf("/perf state = %q, want violated", rep.State)
	}
	var forward *perfslo.ObjectiveReport
	for i := range rep.Objectives {
		if rep.Objectives[i].Name == "forward" && rep.Objectives[i].Node == "ia-0" {
			forward = &rep.Objectives[i]
		}
	}
	if forward == nil {
		t.Fatal("/perf has no forward objective for ia-0")
	}
	if forward.State != perfslo.StateViolated.String() {
		t.Errorf("forward objective state = %q, want violated", forward.State)
	}
	if len(forward.ExemplarEpochs) == 0 {
		t.Fatal("forward objective recorded no breach exemplars")
	}

	// The exemplar is a shuffle-epoch number, and it names the epoch
	// record whose forward counts hold the breach — epoch granularity,
	// nothing finer.
	above := make(map[uint64]uint64)
	for _, r := range d.Traces.Records("ia-0") {
		for le, c := range r.Stages["forward"] {
			if b, err := strconv.ParseFloat(le, 64); err == nil && b > forward.ThresholdSeconds {
				above[r.Epoch] += c
			}
		}
	}
	for _, epoch := range forward.ExemplarEpochs {
		if above[epoch] == 0 {
			t.Errorf("exemplar epoch %d has no record with a forward above %gs on ia-0", epoch, forward.ThresholdSeconds)
		}
	}

	// Each proxy's EPOCH in the fleet view is its latest record.
	names := []string{"ua-0", "ia-0"}
	round := telemetry.ScrapeAll(httpClient, []string{"http://ua-0", "http://ia-0"})
	for i, n := range telemetry.View(nil, round, 0).Nodes {
		recs := d.Traces.Records(names[i])
		if len(recs) == 0 {
			t.Fatalf("no epoch records on %s", names[i])
		}
		if last := recs[len(recs)-1].Epoch; n.Node != names[i] || n.Epoch != last {
			t.Errorf("fleet view row %s at epoch %d, want %s at %d", n.Node, n.Epoch, names[i], last)
		}
	}

	// The transition triggered a profile capture into the ring.
	d.Profiles.Wait()
	caps := d.Profiles.Captures()
	if len(caps) == 0 {
		t.Fatal("no profile captured on SLO violation")
	}
	for _, f := range []string{"heap.pprof", "goroutine.pprof", "meta.json"} {
		if _, err := os.Stat(filepath.Join(caps[0], f)); err != nil {
			t.Errorf("capture missing %s: %v", f, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(caps[0], "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta obsprof.Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(forward.ExemplarEpochs, meta.Epoch) {
		t.Errorf("profile meta.json %+v names epoch %d, not a forward exemplar %v", meta, meta.Epoch, forward.ExemplarEpochs)
	}
}

// TestUnshuffledIALogsOnTheFlushTimer: an IA without a shuffler releases
// no epochs, so its node writes Batch-0 records on the flush timer
// instead, to the log only, numbered from 1 like every record.
func TestUnshuffledIALogsOnTheFlushTimer(t *testing.T) {
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		ShuffleTimeout: 20 * time.Millisecond,
		UseStub:        true,
		Trace:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if failed := getBatch(t, d, 1, 0); failed != 0 {
		t.Fatalf("%d gets failed", failed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for forwards := uint64(0); forwards == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no timer record of the IA's forward")
		}
		time.Sleep(10 * time.Millisecond)
		for i, r := range d.Traces.Records("ia-0") {
			if r.Epoch != uint64(i+1) || r.Batch != 0 {
				t.Fatalf("ia-0 record %d: epoch %d batch %d, want epoch %d batch 0", i, r.Epoch, r.Batch, i+1)
			}
			for _, c := range r.Stages["forward"] {
				forwards += c
			}
		}
	}
	if recs := d.Traces.Records("ua-0"); len(recs) != 1 || recs[0].Epoch != 1 || recs[0].Batch != 1 {
		t.Errorf("ua-0 records %+v, want epoch 1 of one request", recs)
	}
}
