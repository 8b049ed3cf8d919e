package audit

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/slo"
)

// clock is a settable fake clock safe for concurrent reads.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock {
	return &clock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestAuditor(c *clock, extra ...func(*Config)) *Auditor {
	cfg := Config{TargetS: 8, Config: slo.Config{Now: c.Now}}
	for _, fn := range extra {
		fn(&cfg)
	}
	return New(cfg)
}

func TestFullEpochsStayOK(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	for i := 0; i < 50; i++ {
		a.ObserveEpoch("ua-0", 8)
		c.Advance(time.Second)
	}
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after fully occupied epochs, want ok", got)
	}
	epochs, under, violations, warns := a.Stats()
	if epochs != 50 || under != 0 || violations != 0 || warns != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 50/0/0/0", epochs, under, violations, warns)
	}
}

func TestBurnRateWarnThenViolate(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)

	// 300 full epochs, all older than the 5m window but inside 1h.
	for i := 0; i < 300; i++ {
		a.ObserveEpoch("ua-0", 8)
	}
	c.Advance(10 * time.Minute)

	// One under-filled epoch: the 5m window burns (1/1 under-filled,
	// burn 100×) but the 1h window holds (1/301 ≈ 0.33% < 1% budget).
	a.ObserveEpoch("ua-0", 3)
	if got := a.State(); got != slo.StateWarn {
		t.Fatalf("state = %v after short-window burn only, want warn", got)
	}

	// Enough under-filled epochs to burn the 1h budget too → violated.
	for i := 0; i < 6; i++ {
		a.ObserveEpoch("ua-0", 2)
	}
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v after every window burning, want violated", got)
	}
	_, _, violations, warns := a.Stats()
	if violations != 1 || warns != 1 {
		t.Fatalf("transition counters = %d violations, %d warns, want 1/1", violations, warns)
	}
}

func TestRecoveryAsWindowsDrain(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.ObserveEpoch("ua-0", 1) // singleton epoch burns every window at once
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v, want violated", got)
	}
	c.Advance(2 * time.Hour) // observation ages out of the longest window
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after windows drained, want ok", got)
	}
}

func TestTransitionHookAndLogger(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	var buf bytes.Buffer
	a.SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))
	var got [][2]State
	a.OnTransition = func(from, to State, reason string) {
		if reason == "" {
			t.Error("transition fired with empty reason")
		}
		got = append(got, [2]State{from, to})
	}
	a.ObserveEpoch("ua-0", 1)
	// Delivered and logged before ObserveEpoch returned.
	if len(got) != 1 || got[0] != [2]State{StateOK, StateViolated} {
		t.Fatalf("transitions = %v, want [ok → violated]", got)
	}
	if out := buf.String(); !strings.Contains(out, "privacy SLO state transition") || !strings.Contains(out, "violated") {
		t.Fatalf("transition not logged: %s", out)
	}
}

// TestReasonsNameTheFirstLayer: with two keys stale, or two layers
// breached, the reason names the first layer in sorted order, whatever
// order the maps range in.
func TestReasonsNameTheFirstLayer(t *testing.T) {
	for i := 0; i < 20; i++ {
		c := newClock()
		a := newTestAuditor(c, func(cfg *Config) { cfg.MaxKeyAge = time.Hour })
		var reasons []string
		a.OnTransition = func(_, _ State, reason string) { reasons = append(reasons, reason) }
		a.SetKeyBaseline("UA")
		a.SetKeyBaseline("IA")
		c.Advance(2 * time.Hour)
		a.State()
		a.ObserveBreach("UA")
		a.ObserveBreach("IA")
		if want := []string{"stale pseudonymization key on IA", "unremediated breach on UA"}; !slices.Equal(reasons, want) {
			t.Fatalf("run %d: reasons %q, want %q", i, reasons, want)
		}
		if st, why := a.keySignal(c.Now()); st != StateViolated || why != "unremediated breach on IA" {
			t.Fatalf("run %d: two breached layers give %v %q, want violated on IA", i, st, why)
		}
	}
}

func TestWorstEpochWatermarks(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.ObserveEpoch("ua-0", 8)
	a.ObserveEpoch("ua-0", 3) // lifetime worst
	a.ObserveEpoch("ua-1", 8)
	r := a.Report()
	if r.WorstEpochBatch != 3 {
		t.Errorf("lifetime watermark = %d, want 3", r.WorstEpochBatch)
	}
	if r.EffectiveAnonymity != 3 {
		t.Errorf("effective anonymity = %d, want 3", r.EffectiveAnonymity)
	}
	// The windowed watermark recovers once the bad epoch ages out; the
	// lifetime watermark does not.
	c.Advance(2 * time.Hour)
	a.ObserveEpoch("ua-0", 8)
	r = a.Report()
	if r.WorstEpochBatch != 3 {
		t.Errorf("lifetime watermark forgot: %d", r.WorstEpochBatch)
	}
	if r.EffectiveAnonymity != 8 {
		t.Errorf("windowed effective anonymity = %d, want 8", r.EffectiveAnonymity)
	}
}

func TestBreachViolatesUntilRotation(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.ObserveEpoch("ua-0", 8)
	a.ObserveBreach("ua")
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v after breach, want violated", got)
	}
	r := a.Report()
	if len(r.Breached) != 1 || r.Breached[0] != "ua" {
		t.Fatalf("report breached = %v, want [ua]", r.Breached)
	}
	a.ObserveRotation("ua")
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after rotation remediated the breach, want ok", got)
	}
	r = a.Report()
	if len(r.Breached) != 0 {
		t.Fatalf("breached layers survived rotation: %v", r.Breached)
	}
	if age, ok := r.KeyAges["ua"]; !ok || age != 0 {
		t.Fatalf("key age after rotation = %v (present %v), want 0", age, ok)
	}
}

func TestChecksWarnAndViolate(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	breakerOpen, compromised := false, false
	a.AddCheck("breaker ua→ia open", func() bool { return breakerOpen })
	a.AddViolationCheck("enclave compromised", func() bool { return compromised })

	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v with quiet checks, want ok", got)
	}
	breakerOpen = true
	if got := a.State(); got != slo.StateWarn {
		t.Fatalf("state = %v with warn check firing, want warn", got)
	}
	r := a.Report()
	if len(r.DegradedChecks) != 1 || r.DegradedChecks[0] != "breaker ua→ia open" {
		t.Fatalf("degraded checks = %v", r.DegradedChecks)
	}
	compromised = true
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v with violation check firing, want violated", got)
	}
	breakerOpen, compromised = false, false
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after checks cleared, want ok", got)
	}
}

func TestStaleKeyWarns(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c, func(cfg *Config) { cfg.MaxKeyAge = time.Hour })
	a.SetKeyBaseline("ua")
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v with fresh key, want ok", got)
	}
	c.Advance(2 * time.Hour)
	if got := a.State(); got != slo.StateWarn {
		t.Fatalf("state = %v with stale key, want warn", got)
	}
	a.ObserveRotation("ua")
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after rotation, want ok", got)
	}
}

func TestReportShapeAndBoundedHistory(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	for i := 0; i < maxRecentEpochs+44; i++ {
		a.ObserveEpoch("ua-0", 8)
	}
	a.ObserveEpoch("ia-0", 8)
	r := a.Report()
	if len(r.Nodes) != 2 || r.Nodes[0].Node != "ia-0" || r.Nodes[1].Node != "ua-0" {
		t.Fatalf("nodes = %+v, want sorted [ia-0 ua-0]", r.Nodes)
	}
	ua := r.Nodes[1]
	if len(ua.RecentEpochs) != maxRecentEpochs {
		t.Fatalf("history len = %d, want bounded at %d", len(ua.RecentEpochs), maxRecentEpochs)
	}
	if last := ua.RecentEpochs[len(ua.RecentEpochs)-1]; last.Seq != ua.Epochs || last.Batch != 8 || last.Underfilled {
		t.Fatalf("last epoch record = %+v", last)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

func TestHandler(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.ObserveEpoch("ua-0", 4)
	h := a.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", PrivacyPath, nil))
	if rec.Code != 200 {
		t.Fatalf("GET /privacy = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var r Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatalf("payload not JSON: %v", err)
	}
	if r.State != "violated" || r.TargetS != 8 || r.WorstEpochBatch != 4 {
		t.Fatalf("report = %+v", r)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", PrivacyPath, nil))
	if rec.Code != 405 {
		t.Fatalf("POST /privacy = %d, want 405", rec.Code)
	}
}

func TestRegisterMetrics(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.SetKeyBaseline("ua")
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)

	a.ObserveEpoch("ua-0", 8)
	a.ObserveEpoch("ua-0", 2)
	snap := reg.Snapshot()
	want := map[string]float64{
		"pprox_audit_slo_state":                2, // singleton window burn → violated
		"pprox_audit_epochs_total":             2,
		"pprox_audit_underfilled_epochs_total": 1,
		"pprox_audit_violations_total":         1,
		"pprox_audit_effective_anonymity_set":  2,
		"pprox_audit_worst_epoch_batch":        2,
		"pprox_audit_breached_layers":          0,
	}
	for name, v := range want {
		got, ok := snap[name]
		if !ok {
			t.Errorf("metric %s missing from snapshot %v", name, snap)
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if burn := snap[`pprox_audit_burn_rate{window="5m"}`]; burn < 1 {
		t.Errorf("5m burn rate = %g, want >= 1", burn)
	}
	if _, ok := snap[`pprox_audit_key_age_seconds{layer="ua"}`]; !ok {
		t.Errorf("key age series missing: %v", snap)
	}
}

func TestConcurrentObservation(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	a.AddCheck("noop", func() bool { return false })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					a.ObserveEpoch("node", 8)
				case 1:
					a.State()
				case 2:
					a.Report()
				default:
					if g == 0 {
						a.ObserveRotation("ua")
					} else {
						a.Stats()
					}
				}
			}
		}()
	}
	wg.Wait()
}
