package fleet

import (
	"errors"
	"testing"

	"pprox/internal/autoscale"
)

// fakeDriver counts actuations and tracks a pair count.
type fakeDriver struct {
	pairs  int
	adds   int
	drains int
	err    error
}

func (d *fakeDriver) Pairs() int { return d.pairs }
func (d *fakeDriver) AddPair() error {
	if d.err != nil {
		return d.err
	}
	d.adds++
	d.pairs++
	return nil
}
func (d *fakeDriver) DrainPair() error {
	if d.err != nil {
		return d.err
	}
	d.drains++
	d.pairs--
	return nil
}

func testController() *autoscale.Controller {
	return &autoscale.Controller{
		PairCapacityRPS:   100,
		TargetUtilization: 1.0,
		Min:               1,
		Max:               4,
		Hysteresis:        0.25,
	}
}

func TestReconcilerScalesUpOneStepPerTick(t *testing.T) {
	drv := &fakeDriver{pairs: 1}
	sig := autoscale.Signals{RPS: 350, Occupancy: -1}
	rec, err := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals:    func() autoscale.Signals { return sig },
		Driver:     drv,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Tick()
	if d.Action != ActionUp || d.Desired != 4 {
		t.Fatalf("tick 1 = %+v, want scale-up toward 4", d)
	}
	if drv.pairs != 2 {
		t.Fatalf("pairs after one tick = %d, want 2 (one step)", drv.pairs)
	}
	rec.Tick()
	rec.Tick()
	if drv.pairs != 4 {
		t.Fatalf("pairs after three ticks = %d, want 4", drv.pairs)
	}
	if d := rec.Tick(); d.Action != ActionHold {
		t.Fatalf("at target, action = %v, want hold", d.Action)
	}
	if rec.Desired() != 4 {
		t.Fatalf("Desired = %d, want 4", rec.Desired())
	}
}

func TestReconcilerScalesDown(t *testing.T) {
	drv := &fakeDriver{pairs: 3}
	rec, _ := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals: func() autoscale.Signals {
			return autoscale.Signals{RPS: 50, Occupancy: -1}
		},
		Driver: drv,
	})
	if d := rec.Tick(); d.Action != ActionDown {
		t.Fatalf("action = %v, want scale-down", d.Action)
	}
	if drv.drains != 1 || drv.pairs != 2 {
		t.Fatalf("drains=%d pairs=%d, want 1 drain to 2 pairs", drv.drains, drv.pairs)
	}
}

func TestReconcilerUnknownSignalsHold(t *testing.T) {
	drv := &fakeDriver{pairs: 2}
	rec, _ := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals: func() autoscale.Signals {
			return autoscale.Signals{RPS: -1, Occupancy: -1}
		},
		Driver: drv,
	})
	if d := rec.Tick(); d.Action != ActionHold {
		t.Fatalf("unknown RPS produced action %v, want hold", d.Action)
	}
	if drv.adds != 0 || drv.drains != 0 {
		t.Fatalf("unknown signals actuated the driver")
	}
}

func TestReconcilerRecordsDriverError(t *testing.T) {
	drv := &fakeDriver{pairs: 1, err: errors.New("boom")}
	rec, _ := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals: func() autoscale.Signals {
			return autoscale.Signals{RPS: 350, Occupancy: -1}
		},
		Driver: drv,
		Keep:   2,
	})
	if d := rec.Tick(); d.Action != ActionError || d.Err == "" {
		t.Fatalf("driver error not recorded: %+v", d)
	}
	rec.Tick()
	rec.Tick()
	if got := rec.Decisions(); len(got) != 2 || got[1].Seq != 3 {
		t.Fatalf("decision ring = %+v, want last 2 of 3", got)
	}
}

func TestReconcilerHousekeepsRegistry(t *testing.T) {
	reg := NewRegistry(Config{})
	reg.Register("ua", "h1:1")
	reg.Register("ua", "h2:1") // pending, waiting for a boundary that never comes
	drv := &fakeDriver{pairs: 2}
	rec, _ := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals: func() autoscale.Signals {
			return autoscale.Signals{RPS: 150, Occupancy: -1}
		},
		Driver:   drv,
		Registry: reg,
	})
	rec.cfg.AdmitIdleAfter = 0 // white-box: make any pending endpoint overdue
	rec.Tick()
	if n := reg.Count("ua", StateActive); n != 2 {
		t.Fatalf("idle admission did not run: %d active, want 2", n)
	}
}

func TestBuildOverview(t *testing.T) {
	reg := NewRegistry(Config{})
	reg.Register("ua", "h1:1")
	drv := &fakeDriver{pairs: 1}
	rec, _ := NewReconciler(ReconcilerConfig{
		Controller: testController(),
		Signals: func() autoscale.Signals {
			return autoscale.Signals{RPS: 250, Occupancy: -1}
		},
		Driver:   drv,
		Registry: reg,
	})
	ov := BuildOverview(reg, rec, drv.Pairs())
	if ov.DesiredPairs != 1 {
		t.Fatalf("pre-tick DesiredPairs = %d, want current (1)", ov.DesiredPairs)
	}
	rec.Tick()
	ov = BuildOverview(reg, rec, drv.Pairs())
	if ov.CurrentPairs != 2 || ov.DesiredPairs != 3 {
		t.Fatalf("Overview = current %d desired %d, want 2/3", ov.CurrentPairs, ov.DesiredPairs)
	}
	if len(ov.Endpoints) != 1 || len(ov.Decisions) != 1 {
		t.Fatalf("Overview endpoints=%d decisions=%d, want 1/1", len(ov.Endpoints), len(ov.Decisions))
	}
}
