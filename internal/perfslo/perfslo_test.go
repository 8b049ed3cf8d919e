package perfslo

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/slo"
)

// clock is a fake time source.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

// stageRecord stands in for a layer's epoch records of one histogram: each
// next is the bucket growth since the previous one, under the "stage" key
// the test objective reads.
type stageRecord struct {
	h    *metrics.Histogram
	prev []uint64
}

func (r *stageRecord) next() map[string]map[string]uint64 {
	grew := make(map[string]uint64)
	for i, n := range r.h.Buckets(nil) {
		if i == len(r.prev) {
			r.prev = append(r.prev, 0)
		}
		if n > r.prev[i] {
			grew[r.h.LE(i)] = n - r.prev[i]
			r.prev[i] = n
		}
	}
	return map[string]map[string]uint64{"stage": grew}
}

func newTestEval(c *clock) (*Evaluator, *metrics.Histogram) {
	r := metrics.NewRegistry()
	h := r.Histogram("test_stage_seconds", "test", []float64{0.001, 0.01, 0.1, 1})
	e := New(Config{
		Windows: []slo.Window{
			{Name: "1s", Duration: time.Second, Burn: 1},
			{Name: "10s", Duration: 10 * time.Second, Burn: 1},
		},
		Now: c.now,
	})
	e.AddObjective("stage", "ua-0", h, 0.9, 0.01)
	return e, h
}

func TestEvaluatorStaysOKWithinBudget(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	for epoch := uint64(0); epoch < 20; epoch++ {
		// 19 fast, 1 slow per epoch: exactly 5% slow < 10% budget.
		for i := 0; i < 19; i++ {
			h.Observe(0.0005)
		}
		h.Observe(0.5)
		e.Sample("ua-0", epoch, rec.next())
		c.advance(100 * time.Millisecond)
	}
	if got := e.State(); got != StateOK {
		t.Fatalf("state = %v, want ok", got)
	}
	rep := e.Report()
	if len(rep.Objectives) != 1 || len(rep.Objectives[0].ExemplarEpochs) != 0 {
		t.Fatalf("unexpected exemplars in OK state: %+v", rep.Objectives)
	}
}

func TestEvaluatorViolatesAndRecordsExemplars(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	var transitions []string
	e.OnTransition = func(from, to State, reason string) {
		transitions = append(transitions, from.String()+">"+to.String())
	}
	// Every observation slow: burns the whole budget in every window.
	for epoch := uint64(1); epoch <= 5; epoch++ {
		for i := 0; i < 10; i++ {
			h.Observe(0.5)
		}
		e.Sample("ua-0", epoch, rec.next())
		c.advance(100 * time.Millisecond)
	}
	if got := e.State(); got != StateViolated {
		t.Fatalf("state = %v, want violated", got)
	}
	if len(transitions) != 1 || transitions[0] != "ok>violated" {
		t.Fatalf("transitions = %v, want [ok>violated]", transitions)
	}
	rep := e.Report()
	if rep.State != "violated" {
		t.Fatalf("report state = %q", rep.State)
	}
	o := rep.Objectives[0]
	if len(o.ExemplarEpochs) == 0 {
		t.Fatal("no breach exemplars recorded")
	}
	for _, ep := range o.ExemplarEpochs {
		if ep < 1 || ep > 5 {
			t.Fatalf("exemplar epoch %d outside sampled range", ep)
		}
	}
	if o.State != "violated" {
		t.Fatalf("objective state = %q", o.State)
	}
	if v, _ := e.Transitions(); v == 0 {
		t.Fatal("violation transition not counted")
	}
}

func TestEvaluatorRecoversAsWindowsDrain(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	e.Sample("ua-0", 1, rec.next())
	if got := e.State(); got != StateViolated {
		t.Fatalf("state = %v, want violated", got)
	}
	// A healthy stretch longer than the longest window: the bad burst
	// ages out of both windows (samples keep the baseline fresh).
	for epoch := uint64(2); epoch < 130; epoch++ {
		h.Observe(0.0005)
		e.Sample("ua-0", epoch, rec.next())
		c.advance(100 * time.Millisecond)
	}
	if got := e.State(); got != StateOK {
		t.Fatalf("state after recovery = %v, want ok", got)
	}
}

func TestWarnWhenOnlyShortWindowBurns(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	// A long healthy history dilutes the long window below its burn
	// threshold...
	for epoch := uint64(1); epoch < 90; epoch++ {
		for i := 0; i < 10; i++ {
			h.Observe(0.0005)
		}
		e.Sample("ua-0", epoch, rec.next())
		c.advance(100 * time.Millisecond)
	}
	// ...then a short burst of slow requests trips only the 1s window.
	for epoch := uint64(90); epoch < 95; epoch++ {
		h.Observe(0.5)
		e.Sample("ua-0", epoch, rec.next())
		c.advance(100 * time.Millisecond)
	}
	if got := e.State(); got != slo.StateWarn {
		t.Fatalf("state = %v, want warn", got)
	}
}

func TestHandlerServesJSONWithoutInfinities(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	h.Observe(5) // beyond the last bound: lifetime quantile is +Inf
	e.Sample("ua-0", 7, rec.next())
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + PerfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	o := rep.Objectives[0]
	if math.IsInf(o.ObservedSeconds, 1) || !o.ObservedOverflow {
		t.Fatalf("overflow not clamped: %+v", o)
	}
	if o.LastEpoch != 7 {
		t.Fatalf("last epoch = %d, want 7", o.LastEpoch)
	}
}

func TestRegisterMetricsExportsFamilies(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	e.Sample("ua-0", 3, rec.next())
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)
	snap := r.Snapshot()
	if snap["pprox_perfslo_state"] != 2 {
		t.Fatalf("pprox_perfslo_state = %v, want 2", snap["pprox_perfslo_state"])
	}
	var sawBurn, sawExemplar bool
	for series, v := range snap {
		if strings.HasPrefix(series, "pprox_perfslo_burn_rate{") && v > 0 {
			sawBurn = true
		}
		if strings.HasPrefix(series, "pprox_perfslo_exemplar_epoch{") && v == 3 {
			sawExemplar = true
		}
	}
	if !sawBurn || !sawExemplar {
		t.Fatalf("missing series (burn=%v exemplar=%v): %v", sawBurn, sawExemplar, snap)
	}
}

func TestThresholdAlignsToBucketBound(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	r := metrics.NewRegistry()
	h := r.Histogram("s", "t", []float64{0.001, 0.01, 0.1})
	e := New(Config{Now: c.now})
	e.AddObjective("stage", "n", h, 0.99, 0.05) // not a bound: aligns to 0.1
	rep := e.Report()
	if got := rep.Objectives[0].ThresholdSeconds; got != 0.1 {
		t.Fatalf("aligned threshold = %g, want 0.1", got)
	}
	if got := rep.Objectives[0].RawThresholdSeconds; got != 0.05 {
		t.Fatalf("raw threshold = %g, want 0.05", got)
	}
}

// TestSlowCountNeverDropsUnderConcurrentObservers: observers write only
// fast values while the objective is read back to back. A reading taken
// in two passes (≤ threshold, then total) counted an observation landing
// between them as slow and the next reading took it back, so the
// cumulative bad count went down, window deltas wrapped around as uint64
// and the evaluator reported burns that never happened.
func TestSlowCountNeverDropsUnderConcurrentObservers(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}
	o := e.objectives[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.0005)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var prev slo.Reading
	for i := 0; i < 20000; i++ {
		r := o.Read()
		if r.Good < prev.Good || r.Bad < prev.Bad {
			t.Fatalf("reading %d went down: %+v after %+v", i, r, prev)
		}
		prev = r
		if i%10 == 0 {
			e.Sample("ua-0", uint64(i/10), rec.next())
			c.advance(time.Second)
			if st := e.State(); st != StateOK {
				t.Fatalf("state %v after %d fast-only samples", st, i/10+1)
			}
		}
	}
	if v, w := e.Transitions(); v+w != 0 {
		t.Fatalf("%d violation and %d warn transitions without one slow observation", v, w)
	}
}

// TestExemplarNamesTheRecordThatHoldsTheBreach: observations that land
// after a record was taken — while its observer runs — belong to the
// next record, and so does their exemplar. Deciding on the live
// histogram instead named a record that holds no breaching observation.
func TestExemplarNamesTheRecordThatHoldsTheBreach(t *testing.T) {
	c := &clock{t: time.Unix(1000, 0)}
	e, h := newTestEval(c)
	rec := &stageRecord{h: h}

	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	e.Sample("ua-0", 1, rec.next())
	c.advance(100 * time.Millisecond)

	h.Observe(0.0005)
	second := rec.next() // epoch 2's record: one fast observation
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // lands while epoch 2's record is passed around
	}
	e.Sample("ua-0", 2, second)
	c.advance(100 * time.Millisecond)
	e.Sample("ua-0", 3, rec.next())

	if got := e.State(); got != StateViolated {
		t.Fatalf("state = %v, want violated", got)
	}
	if got := e.Report().Objectives[0].ExemplarEpochs; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("exemplars = %v, want [1 3]: epoch 2's record holds no slow observation", got)
	}
}
