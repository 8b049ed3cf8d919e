package adversary_test

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"pprox/internal/adversary"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
)

// TestPerfReportGrantsNoLinkingAdvantage extends the leaked-telemetry
// adversary to the /perf endpoint: the adversary obtains the full
// latency-SLO report of a node under SLO breach — the richest version of
// the payload, with burn rates, per-stage quantiles, and breach exemplar
// epochs populated. The payload must be epoch-granular only: exemplars
// are shuffle-epoch ids, something the network adversary already counts
// by watching flushes, so the report must add zero linking advantage.
func TestPerfReportGrantsNoLinkingAdvantage(t *testing.T) {
	eachKeyMaterial(t, testPerfReportGrantsNoLinkingAdvantage)
}

func testPerfReportGrantsNoLinkingAdvantage(t *testing.T, km keyMaterial) {
	const s = 8
	schedule := []int{s, s, s, s}
	st := newTappedStack(t, km, s)

	// The evaluator reads the layer's own stage histograms; registering
	// metrics installs them, exactly as every binary does.
	st.ua.RegisterMetrics(metrics.NewRegistry(), "ua")
	eval := perfslo.New(perfslo.Config{})
	// A threshold far below the real stage latencies guarantees every
	// epoch breaches: the report under test carries a full exemplar ring,
	// not an empty one.
	for _, stage := range []string{proxy.StageServe, proxy.StageEcallDecrypt} {
		h := st.ua.StageHistogram(stage)
		if h == nil {
			t.Fatalf("stage %s has no histogram after RegisterMetrics", stage)
		}
		eval.AddObjective(stage, "ua-0", h, 0.99, 0.0001)
	}
	st.ua.SetEpochObserver(func(rec proxy.EpochRecord) {
		eval.Sample("ua-0", rec.Epoch, rec.Stages)
	})

	users, edge := runSchedule(t, st, schedule)
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	truth := st.truth(t, users)

	// The leak: the raw /perf response body.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", perfslo.PerfPath, nil)
	eval.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", perfslo.PerfPath, rec.Code)
	}
	body := rec.Body.String()

	// No identifier — raw or pseudonymous — may appear in the payload.
	for _, u := range users {
		if strings.Contains(body, u) {
			t.Fatalf("perf report leaks raw user ID %q", u)
		}
	}
	if strings.Contains(body, "sensitive-item") {
		t.Fatal("perf report leaks a raw item ID")
	}
	for u, pseudo := range truth {
		if strings.Contains(body, pseudo) {
			t.Fatalf("perf report leaks the pseudonym of %q", u)
		}
	}

	// The report must actually be in breach with exemplars recorded —
	// otherwise the zero-advantage claim below is vacuous.
	var rep perfslo.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.State != perfslo.StateViolated.String() {
		t.Fatalf("report state = %q, want violated (the test needs the richest payload)", rep.State)
	}
	exemplars := make(map[uint64]bool)
	for _, o := range rep.Objectives {
		for _, e := range o.ExemplarEpochs {
			exemplars[e] = true
		}
	}
	if len(exemplars) == 0 {
		t.Fatal("no breach exemplars recorded despite violated state")
	}

	// Quantitative zero-advantage: the exemplars name whole epochs, and
	// epoch boundaries are something the adversary already observes (a
	// flush of S messages). The exemplar-guided attack — correlate within
	// each named epoch — must produce exactly the guesses the report-free
	// in-order attack already makes at those positions, and stay at 1/S.
	baseline := adversary.CorrelateInOrder(edge, lrs)
	var augmented []adversary.Guess
	for e := range exemplars {
		off := (int(e) - 1) * s // epochs number from 1
		if off < 0 || off+s > len(lrs) {
			t.Fatalf("exemplar epoch %d is outside the %d observed epochs — "+
				"sub-epoch or phantom information in the report", e, len(schedule))
		}
		guesses := adversary.CorrelateInOrder(edge[off:off+s], lrs[off:off+s])
		for i, g := range guesses {
			if g != baseline[off+i] {
				t.Fatalf("exemplar epoch %d changed guess %d: %v → %v — "+
					"the payload carries sub-epoch information", e, off+i, baseline[off+i], g)
			}
		}
		augmented = append(augmented, guesses...)
	}
	if acc := adversary.Accuracy(augmented, truth); acc > 0.4 {
		t.Errorf("exemplar-guided accuracy = %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
}
