package perfslo

import (
	"math"
	"net/http"
	"sort"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/slo"
)

// Report is the /perf payload: the evaluator's full assessment. Like the
// /privacy report it contains nothing an on-path adversary does not
// already observe: objectives and thresholds are configuration, burn
// rates and quantiles are coarse aggregates over whole windows, and
// exemplars are shuffle-EPOCH ids — the granularity the epoch records
// already publish. No per-request records, no identifiers, no
// pseudonyms, no fine-grained timestamps; the adversary test asserts
// that mechanically.
type Report struct {
	// State is the overall SLO state ("ok", "warn", "violated") — the
	// max over objectives.
	State string `json:"state"`
	// StateSeconds is how long the evaluator has been in this state,
	// coarsened to whole seconds.
	StateSeconds int64 `json:"state_seconds"`
	// Violations / Warns count overall state transitions.
	Violations uint64 `json:"violations_total"`
	Warns      uint64 `json:"warns_total"`
	// Objectives are the per-objective evaluations, sorted by node then
	// name.
	Objectives []ObjectiveReport `json:"objectives"`
}

// ObjectiveReport is one latency objective's evaluation.
type ObjectiveReport struct {
	// Name is the objective (usually a pipeline stage, e.g.
	// "shuffle_wait"); Node is the machine it is evaluated on.
	Name string `json:"name"`
	Node string `json:"node"`
	// Quantile and ThresholdSeconds state the objective: quantile q of
	// observations must be ≤ the threshold. ThresholdSeconds is aligned
	// up to the histogram's bucket bound (the resolution the split is
	// evaluated at); RawThresholdSeconds is as configured.
	Quantile            float64 `json:"quantile"`
	ThresholdSeconds    float64 `json:"threshold_seconds"`
	RawThresholdSeconds float64 `json:"raw_threshold_seconds"`
	// ObservedSeconds is the current lifetime quantile estimate at
	// histogram resolution. Observations past the last bucket bound
	// report the largest bound ×10 (a +Inf stand-in JSON can carry);
	// ObservedOverflow marks that case.
	ObservedSeconds  float64 `json:"observed_seconds"`
	ObservedOverflow bool    `json:"observed_overflow,omitempty"`
	// Observations is the lifetime observation count.
	Observations uint64 `json:"observations"`
	// State is this objective's state.
	State string `json:"state"`
	// Windows are the burn-rate evaluations, shortest first.
	Windows []windowEval `json:"windows"`
	// ExemplarEpochs are the shuffle-epoch ids of recent SLO breaches,
	// oldest first (bounded ring). Each id names the node's epoch record
	// of that number — and nothing finer.
	ExemplarEpochs []uint64 `json:"exemplar_epochs,omitempty"`
	// LastEpoch is the most recent epoch sampled on this objective's
	// node.
	LastEpoch uint64 `json:"last_epoch"`
}

// windowEval is one window's burn-rate evaluation for one objective.
type windowEval struct {
	Window string `json:"window"`
	// Observations / Slow count the window's histogram delta: total
	// observations and those over the threshold.
	Observations uint64  `json:"observations"`
	Slow         uint64  `json:"slow"`
	BurnRate     float64 `json:"burn_rate"`
	Burning      bool    `json:"burning"`
}

// Report assembles the current assessment.
func (e *Evaluator) Report() Report {
	var r Report
	e.Read(func(now time.Time, st slo.Status) {
		r = Report{
			State:        st.State.String(),
			StateSeconds: int64(now.Sub(st.Since) / time.Second),
			Violations:   st.Violations,
			Warns:        st.Warns,
		}
		for _, o := range e.objectives {
			q := o.hist.Quantile(o.quantile)
			or := ObjectiveReport{
				Name:                o.name,
				Node:                o.node,
				Quantile:            o.quantile,
				ThresholdSeconds:    clampInf(o.threshold, o.hist),
				RawThresholdSeconds: o.rawThreshold,
				ObservedSeconds:     clampInf(q, o.hist),
				ObservedOverflow:    math.IsInf(q, 1),
				Observations:        o.hist.Count(),
				State:               o.State().String(),
				ExemplarEpochs:      append([]uint64(nil), o.exemplars...),
				LastEpoch:           o.lastEpoch,
			}
			for _, w := range e.Windows() {
				ev := o.Window(w, now)
				or.Windows = append(or.Windows, windowEval{Window: w.Name, Observations: ev.Good + ev.Bad,
					Slow: ev.Bad, BurnRate: ev.BurnRate, Burning: ev.Burning})
			}
			r.Objectives = append(r.Objectives, or)
		}
	})
	sort.Slice(r.Objectives, func(i, j int) bool {
		if r.Objectives[i].Node != r.Objectives[j].Node {
			return r.Objectives[i].Node < r.Objectives[j].Node
		}
		return r.Objectives[i].Name < r.Objectives[j].Name
	})
	return r
}

// clampInf replaces +Inf with the histogram's largest bound ×10 so the
// JSON wire format (which cannot carry infinities) stays parseable.
func clampInf(v float64, h *metrics.Histogram) float64 {
	if math.IsInf(v, 1) {
		return h.MaxBound() * 10
	}
	return v
}

// PerfPath is the debug endpoint the report is served on.
const PerfPath = "/perf"

// Handler serves the JSON report (GET /perf).
func (e *Evaluator) Handler() http.Handler {
	return slo.Handler(func() any { return e.Report() })
}

// RegisterMetrics exposes the evaluator on the registry: the engine's
// pprox_perfslo_state (0 ok, 1 warn, 2 violated),
// pprox_perfslo_violations_total, pprox_perfslo_warns_total and
// pprox_perfslo_burn_rate{objective,node,window}, and
//
//   - pprox_perfslo_objective_state{objective,node} gauges,
//   - pprox_perfslo_exemplar_epoch{objective,node} gauges (the latest
//     breach's shuffle-epoch id; 0 when none).
//
// Call it after every AddObjective: objectives registered later are not
// picked up.
func (e *Evaluator) RegisterMetrics(r *metrics.Registry) {
	e.Engine.RegisterMetrics(r, slo.Families{Kind: "performance", State: "pprox_perfslo_state",
		Prefix: "pprox_perfslo", Labels: []string{"objective", "node"}})
	objState := r.GaugeVec("pprox_perfslo_objective_state",
		"Per-objective performance SLO state: 0 ok, 1 warn, 2 violated.",
		"objective", "node")
	exemplar := r.GaugeVec("pprox_perfslo_exemplar_epoch",
		"Shuffle-epoch id of the latest SLO breach exemplar (0 when none).",
		"objective", "node")
	var objectives []*objective
	e.Read(func(time.Time, slo.Status) { objectives = append(objectives, e.objectives...) })
	for _, o := range objectives {
		objState.With(e.Sampler(func(time.Time) float64 { return float64(o.State()) }), o.name, o.node)
		exemplar.With(e.Sampler(func(time.Time) float64 {
			if n := len(o.exemplars); n > 0 {
				return float64(o.exemplars[n-1])
			}
			return 0
		}), o.name, o.node)
	}
}
