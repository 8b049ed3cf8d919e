package autoscale

import (
	"testing"
	"time"
)

func snapshotAt(served, bsum, bcount float64) func() map[string]float64 {
	return func() map[string]float64 {
		return map[string]float64{
			`pprox_proxy_requests_served_total{layer="ua",node="ua-0"}`:    served,
			`pprox_proxy_shuffle_batch_size_sum{layer="ua",node="ua-0"}`:   bsum,
			`pprox_proxy_shuffle_batch_size_count{layer="ua",node="ua-0"}`: bcount,
			// IA series must be ignored: only the UA layer sees client
			// arrivals.
			`pprox_proxy_requests_served_total{layer="ia",node="ia-0"}`:  served * 10,
			`pprox_proxy_shuffle_batch_size_sum{layer="ia",node="ia-0"}`: bsum * 10,
		}
	}
}

func TestSignalSourceFirstSampleUnknown(t *testing.T) {
	s := NewSignalSource(SignalSourceConfig{
		Snapshot:    snapshotAt(100, 0, 0),
		ShuffleSize: 8,
	})
	sig := s.Sample(time.Unix(1000, 0))
	if sig.RPS >= 0 || sig.Occupancy >= 0 {
		t.Fatalf("first sample = %+v, want all unknown", sig)
	}
}

func TestSignalSourceComputesWindowDeltas(t *testing.T) {
	var served, bsum, bcount float64 = 100, 80, 10
	s := NewSignalSource(SignalSourceConfig{
		Snapshot:    func() map[string]float64 { return snapshotAt(served, bsum, bcount)() },
		ShuffleSize: 8,
	})
	now := time.Unix(1000, 0)
	s.Sample(now)

	// 200 more requests over 2s → 100 RPS; 5 more epochs releasing 6
	// messages each → occupancy 6/8.
	served, bsum, bcount = 300, 110, 15
	now = now.Add(2 * time.Second)
	sig := s.Sample(now)
	if sig.RPS != 100 {
		t.Errorf("RPS = %v, want 100", sig.RPS)
	}
	if sig.Occupancy != 0.75 {
		t.Errorf("Occupancy = %v, want 0.75", sig.Occupancy)
	}

	// No epochs in the next window: occupancy unknown again, RPS zero.
	now = now.Add(2 * time.Second)
	sig = s.Sample(now)
	if sig.RPS != 0 || sig.Occupancy >= 0 {
		t.Errorf("idle window = %+v, want RPS 0 and unknown occupancy", sig)
	}
}

func TestSignalSourceCounterResetClampsToZero(t *testing.T) {
	served := 1000.0
	s := NewSignalSource(SignalSourceConfig{
		Snapshot: func() map[string]float64 {
			return map[string]float64{
				`pprox_proxy_requests_served_total{layer="ua",node="ua-0"}`: served,
			}
		},
		ShuffleSize: 8,
	})
	now := time.Unix(1000, 0)
	s.Sample(now)
	served = 5 // registry restarted
	sig := s.Sample(now.Add(time.Second))
	if sig.RPS != 0 {
		t.Errorf("RPS after counter reset = %v, want 0", sig.RPS)
	}
}

func TestDesiredLiveUnknownRPSHolds(t *testing.T) {
	c := DefaultController()
	if got := c.DesiredLive(Signals{RPS: -1, Occupancy: 0.1}, 3); got != 3 {
		t.Errorf("DesiredLive with unknown RPS = %d, want hold at 3", got)
	}
	if got := c.DesiredLive(Signals{RPS: -1}, 0); got != c.Min {
		t.Errorf("DesiredLive clamps unknown-RPS hold to Min: got %d", got)
	}
}

func TestDesiredLiveOccupancyOverridesHysteresis(t *testing.T) {
	// A controller whose hysteresis band is wide enough to hold counts
	// the rate alone would keep — the occupancy floor must break the tie.
	c := &Controller{
		PairCapacityRPS:   100,
		TargetUtilization: 0.5,
		Min:               1,
		Max:               8,
		Hysteresis:        0.75,
		OccupancyFloor:    0.5,
	}
	// 45 RPS at 2 pairs: rate-only policy holds (45 ≥ 25 margin).
	base := Signals{RPS: 45, Occupancy: -1}
	if got := c.DesiredLive(base, 2); got != 2 {
		t.Fatalf("rate-only hold = %d, want 2", got)
	}
	// Same rate but starved buffers (mean batch 30%% of S): scale down
	// to raw demand.
	starved := Signals{RPS: 45, Occupancy: 0.3}
	if got := c.DesiredLive(starved, 2); got != 1 {
		t.Fatalf("starved-buffer override = %d, want 1", got)
	}
	// Healthy occupancy: no override.
	healthy := Signals{RPS: 45, Occupancy: 0.9}
	if got := c.DesiredLive(healthy, 2); got != 2 {
		t.Fatalf("healthy occupancy = %d, want hold at 2", got)
	}
	// The override never cuts below raw demand: 95 RPS needs 2 pairs.
	loaded := Signals{RPS: 95, Occupancy: 0.3}
	if got := c.DesiredLive(loaded, 2); got != 2 {
		t.Fatalf("override below raw demand = %d, want 2", got)
	}
}

func TestDesiredLiveDisabledFloor(t *testing.T) {
	c := &Controller{
		PairCapacityRPS:   100,
		TargetUtilization: 0.5,
		Min:               1,
		Max:               8,
		Hysteresis:        0.75,
	}
	sig := Signals{RPS: 45, Occupancy: 0.1}
	if got := c.DesiredLive(sig, 2); got != 2 {
		t.Errorf("zero OccupancyFloor still overrode: got %d, want 2", got)
	}
}
