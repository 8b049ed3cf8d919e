package sim

import (
	"math"
	"time"

	"pprox/internal/stats"
)

// elastic.go simulates the elastic scaling the paper calls for (§5,
// §8.1.2): "The two proxy layers need, therefore, to elastically scale up
// and down based on observed request load, dynamically implementing a
// compromise between throughput and latency." A time-varying load is
// served either by a fixed proxy fleet or by one resized per load segment
// by the Controller. The experiment quantifies the trade-off the paper
// describes — fixed large fleets waste capacity AND latency (starved
// shuffle buffers at low load: "latencies due to request shuffling may
// become too high … the number of proxy instances should ideally be
// elastically scaled down"), while elastic fleets track the knee.

// Controller computes the desired number of UA+IA instance pairs from the
// observed request rate.
type Controller struct {
	// PairCapacityRPS is the load one instance pair sustains before
	// saturating — 250 RPS in the paper's evaluation (Fig. 8).
	PairCapacityRPS float64
	// TargetUtilization positions steady-state load below the knee
	// (e.g. 0.8 → scale up at 200 RPS per pair).
	TargetUtilization float64
	// Min and Max bound the pair count.
	Min, Max int
	// Hysteresis avoids flapping: scale down only when the desired
	// count is below current by more than this fraction of a pair's
	// capacity.
	Hysteresis float64
}

// DefaultController returns the paper-calibrated policy.
func DefaultController() *Controller {
	return &Controller{
		PairCapacityRPS:   250,
		TargetUtilization: 0.8,
		Min:               1,
		Max:               16,
		Hysteresis:        0.25,
	}
}

// Desired returns the instance-pair count for the observed rate, given the
// current count.
func (c *Controller) Desired(observedRPS float64, current int) int {
	current = c.clamp(current)
	perPair := c.PairCapacityRPS * c.TargetUtilization
	raw := c.clamp(int(math.Ceil(observedRPS / perPair)))
	if raw >= current {
		return raw // scale up immediately: saturation hurts now
	}
	// Scale down only past the hysteresis band.
	margin := float64(current)*perPair - c.Hysteresis*c.PairCapacityRPS
	if observedRPS < margin && raw < current {
		return raw
	}
	return current
}

// clamp bounds a pair count to [Min, Max].
func (c *Controller) clamp(n int) int {
	if n < c.Min {
		n = c.Min
	}
	if n > c.Max {
		n = c.Max
	}
	return n
}

// ElasticSegment is one measured segment of the load trace.
type ElasticSegment struct {
	RPS    int
	Pairs  int
	Candle stats.Candlestick
}

// ElasticResult compares one policy over the whole trace.
type ElasticResult struct {
	Policy   string
	Segments []ElasticSegment
	// PairSeconds is the provisioned capacity integral (instance pairs
	// × seconds): the deployment cost.
	PairSeconds float64
}

// ElasticTrace is the diurnal-style load profile used by the experiment.
func ElasticTrace() []int {
	return []int{50, 250, 500, 1000, 750, 250, 50}
}

// RunElastic simulates the trace under a fixed fleet of fixedPairs and
// under the Controller, with shuffle size S = 10 as in Figure 8. Each
// segment runs for opts.Duration of virtual time.
func RunElastic(fixedPairs int, trace []int, opts RunOptions) (fixed, elastic ElasticResult) {
	fixed = runPolicy("fixed", trace, opts, func(rps int, current int) int {
		return fixedPairs
	})
	ctrl := DefaultController()
	elastic = runPolicy("elastic", trace, opts, func(rps int, current int) int {
		// The controller sees the (perfectly estimated) segment rate.
		return ctrl.Desired(float64(rps), current)
	})
	return fixed, elastic
}
func runPolicy(name string, trace []int, opts RunOptions, pairsFor func(rps, current int) int) ElasticResult {
	res := ElasticResult{Policy: name}
	current := 1
	for _, rps := range trace {
		current = pairsFor(rps, current)
		spec := SystemSpec{
			Proxy: true, UA: current, IA: current,
			Encryption: true, SGX: true, ItemPseudonyms: true,
			Shuffle: 10, UseStub: true, Seed: 1,
		}
		sys := NewSystem(spec)
		dist := sys.Run(rps, opts.Duration, opts.Trim)
		res.Segments = append(res.Segments, ElasticSegment{
			RPS:    rps,
			Pairs:  current,
			Candle: dist.Candlestick(),
		})
		res.PairSeconds += float64(current) * opts.Duration.Seconds()
	}
	return res
}

// WorstMedian returns the highest per-segment median latency of a policy.
func (r ElasticResult) WorstMedian() time.Duration {
	var worst time.Duration
	for _, s := range r.Segments {
		if s.Candle.Median > worst {
			worst = s.Candle.Median
		}
	}
	return worst
}
