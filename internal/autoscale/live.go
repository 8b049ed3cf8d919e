package autoscale

import (
	"strings"
	"sync"
	"time"

	"pprox/internal/metrics"
)

// Signals are the live inputs to one scaling decision, read from the
// surfaces the deployment already exports rather than from any new
// instrumentation: the request rate and shuffle occupancy both come from
// the /metrics registry. Negative values mean "unknown" (the source has
// not observed enough yet); the reconciler skips or degrades gracefully.
type Signals struct {
	// RPS is the fleet-wide request arrival rate at the UA layer.
	RPS float64
	// Occupancy is the mean released shuffle-batch size over the sample
	// window as a fraction of S: 1.0 means every epoch filled before the
	// timer, low values mean starved buffers paying timer-bound fills
	// (the paper's Fig. 8 scale-down argument).
	Occupancy float64
}

// SignalSourceConfig wires a SignalSource to its inputs.
type SignalSourceConfig struct {
	// Snapshot samples the metrics registry (Registry.Snapshot).
	Snapshot func() map[string]float64
	// ShuffleSize is S, the denominator of the occupancy fraction.
	// Values ≤ 1 leave Occupancy unknown.
	ShuffleSize int
}

// SignalSource derives Signals from successive registry snapshots: RPS
// is the UA served-counter delta over the wall-clock window between
// samples, occupancy the mean released batch size over the same window.
// It is the live-signal adapter between the exported instruments and the
// Controller.
type SignalSource struct {
	cfg SignalSourceConfig

	mu         sync.Mutex
	started    bool
	lastAt     time.Time
	lastServed float64
	lastBSum   float64
	lastBCount float64
}

// NewSignalSource builds a source. Snapshot is required.
func NewSignalSource(cfg SignalSourceConfig) *SignalSource {
	return &SignalSource{cfg: cfg}
}

// Sample reads one Signals observation at time now. The first call (and
// any call with no elapsed wall time) returns unknown RPS and occupancy:
// both are window deltas and need two samples.
func (s *SignalSource) Sample(now time.Time) Signals {
	sig := Signals{RPS: -1, Occupancy: -1}
	if s.cfg.Snapshot == nil {
		return sig
	}
	var served, bsum, bcount float64
	for series, v := range s.cfg.Snapshot() {
		// Cheap name prefilter before ParseSeries allocates a label map.
		name, _, _ := strings.Cut(series, "{")
		switch name {
		case "pprox_proxy_requests_served_total",
			"pprox_proxy_shuffle_batch_size_sum",
			"pprox_proxy_shuffle_batch_size_count":
		default:
			continue
		}
		_, labels := metrics.ParseSeries(series)
		if labels["layer"] != "ua" {
			continue
		}
		switch name {
		case "pprox_proxy_requests_served_total":
			served += v
		case "pprox_proxy_shuffle_batch_size_sum":
			bsum += v
		case "pprox_proxy_shuffle_batch_size_count":
			bcount += v
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		elapsed := now.Sub(s.lastAt).Seconds()
		if elapsed > 0 {
			d := served - s.lastServed
			if d < 0 {
				d = 0 // registry restarted under us
			}
			sig.RPS = d / elapsed
		}
		if s.cfg.ShuffleSize > 1 {
			dc := bcount - s.lastBCount
			ds := bsum - s.lastBSum
			if dc > 0 && ds >= 0 {
				sig.Occupancy = ds / dc / float64(s.cfg.ShuffleSize)
			}
		}
	}
	s.started = true
	s.lastAt = now
	s.lastServed = served
	s.lastBSum = bsum
	s.lastBCount = bcount
	return sig
}

// DesiredLive is Desired driven by the full live-signal set. The request
// rate drives the base decision exactly like Desired; additionally, when
// the occupancy signal shows starved shuffle buffers (mean released
// batch below OccupancyFloor×S) while the rate alone sits inside the
// hysteresis band, the controller scales down anyway — the paper's
// Fig. 8 argument that over-provisioned layers pay timer-bound epoch
// fills, so latency (not just cost) argues for fewer pairs. Unknown
// signals (negative) degrade to the rate-only policy; an unknown rate
// makes no decision at all.
func (c *Controller) DesiredLive(sig Signals, current int) int {
	if sig.RPS < 0 {
		if current < c.Min {
			return c.Min
		}
		if current > c.Max {
			return c.Max
		}
		return current
	}
	base := c.Desired(sig.RPS, current)
	if base != current || c.OccupancyFloor <= 0 {
		return base
	}
	if sig.Occupancy < 0 || sig.Occupancy >= c.OccupancyFloor {
		return base
	}
	// Starved buffers: bypass the hysteresis band, but never the raw
	// demand — capacity below ceil(RPS/perPair) would saturate.
	raw := c.clamp(int(rawPairs(sig.RPS, c.PairCapacityRPS*c.TargetUtilization)))
	if raw < base {
		return raw
	}
	return base
}
