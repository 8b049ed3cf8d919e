package slo_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
	"pprox/internal/slo"
)

// clock is a settable fake clock.
type clock struct{ t time.Time }

func (c *clock) now() time.Time { return c.t }

var scenarioWindows = []slo.Window{
	{Name: "1m", Duration: time.Minute, Burn: 1},
	{Name: "10m", Duration: 10 * time.Minute, Burn: 1},
}

// instance is one engine instance under the scenario script: event
// records one good or bad event as a reading of its own.
type instance struct {
	engine *slo.Engine
	event  func(bad bool)
}

// occupancy is the privacy auditor fed by ObserveEpoch: a full epoch is
// good, a singleton bad.
func occupancy(c *clock) instance {
	a := audit.New(audit.Config{TargetS: 8, Objective: 0.9, Config: slo.Config{Windows: scenarioWindows, Now: c.now}})
	return instance{a.Engine, func(bad bool) {
		batch := 8
		if bad {
			batch = 1
		}
		a.ObserveEpoch("ua-0", batch)
	}}
}

// latency is the latency evaluator fed by Observe and Sample: 0.5 ms is
// good, 0.5 s bad against a 10 ms threshold.
func latency(c *clock) instance {
	h := metrics.NewRegistry().Histogram("stage_seconds", "test", []float64{0.001, 0.01, 0.1})
	e := perfslo.New(perfslo.Config{Windows: scenarioWindows, Now: c.now})
	e.AddObjective("stage", "ua-0", h, 0.9, 0.01)
	var epoch uint64
	return instance{e.Engine, func(bad bool) {
		v, le := 0.0005, "0.001"
		if bad {
			v, le = 0.5, "+Inf"
		}
		h.Observe(v)
		e.Sample("ua-0", epoch, map[string]map[string]uint64{"stage": {le: 1}})
		epoch++
	}}
}

// TestOneScriptBothInstances runs one scenario against the occupancy and
// the latency instance. Both must pass through the same states, deliver
// the same transitions — each by the time the call that made it returns
// — and count the same.
func TestOneScriptBothInstances(t *testing.T) {
	steps := []struct {
		name      string
		advance   time.Duration
		good, bad int
		want      slo.State
		delivered []string
	}{
		{"full", 0, 20, 0, slo.StateOK, nil},
		{"short window burns", 5 * time.Minute, 0, 1, slo.StateWarn, []string{"ok>warn"}},
		{"every window burns", 0, 0, 2, slo.StateViolated, []string{"warn>violated"}},
		{"drained", 11 * time.Minute, 0, 0, slo.StateOK, []string{"violated>ok"}},
		{"one bad event burns both", 0, 0, 1, slo.StateViolated, []string{"ok>violated"}},
		{"event exactly at the short horizon", time.Minute, 0, 0, slo.StateWarn, []string{"violated>warn"}},
		{"event exactly at the long horizon", 9 * time.Minute, 0, 0, slo.StateOK, []string{"warn>ok"}},
	}
	for name, build := range map[string]func(*clock) instance{"occupancy": occupancy, "latency": latency} {
		t.Run(name, func(t *testing.T) {
			c := &clock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
			in := build(c)
			var got, want []string
			in.engine.OnTransition = func(from, to slo.State, reason string) {
				if to != slo.StateOK && reason == "" {
					t.Errorf("%v>%v delivered without a reason", from, to)
				}
				got = append(got, from.String()+">"+to.String())
			}
			for _, s := range steps {
				c.t = c.t.Add(s.advance)
				for i := 0; i < s.good+s.bad; i++ {
					in.event(i >= s.good)
				}
				want = append(want, s.delivered...)
				if s.good+s.bad > 0 && !slices.Equal(got, want) {
					t.Fatalf("%s: delivered %v when the last event returned, want %v", s.name, got, want)
				}
				if st := in.engine.State(); st != s.want || !slices.Equal(got, want) {
					t.Fatalf("%s: state %v, delivered %v; want %v, %v", s.name, st, got, s.want, want)
				}
			}
			if v, w := in.engine.Transitions(); v != 2 || w != 2 {
				t.Fatalf("transitions = %d violations, %d warns; want 2, 2", v, w)
			}
		})
	}
}

// TestConcurrentTransitionsArriveAsAChain: every Update moves the state,
// from several goroutines at once. The hook must see each transition
// once, in the order the engine made them — each one's from is the
// previous one's to — and before the Update that made it returns.
func TestConcurrentTransitionsArriveAsAChain(t *testing.T) {
	e := slo.New(slo.Config{}, "test transition")
	n := 0 // guarded by the engine lock
	e.AddSignal(func(time.Time) (slo.State, string) { return slo.State(n % 3), "step" })
	var mu sync.Mutex
	var got [][2]slo.State
	e.OnTransition = func(from, to slo.State, _ string) {
		mu.Lock()
		got = append(got, [2]slo.State{from, to})
		mu.Unlock()
	}
	const callers, calls = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var seq int
				e.Update(func(time.Time) { n++; seq = n })
				mu.Lock()
				delivered := len(got)
				mu.Unlock()
				if delivered < seq {
					t.Errorf("transition %d not delivered when its Update returned (%d delivered)", seq, delivered)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(got) != callers*calls {
		t.Fatalf("%d transitions delivered, want %d", len(got), callers*calls)
	}
	prev := slo.StateOK
	for i, tr := range got {
		if tr[0] != prev {
			t.Fatalf("transition %d is %v>%v, after one that ended in %v", i, tr[0], tr[1], prev)
		}
		prev = tr[1]
	}
}
