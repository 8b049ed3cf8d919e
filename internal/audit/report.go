package audit

import (
	"net/http"
	"sort"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/slo"
)

// Report is the /privacy payload: the auditor's full assessment at epoch
// granularity. Everything in it is either configuration, a coarse
// aggregate, or a per-EPOCH quantity (batch sizes are visible on the
// wire as message bursts, so exporting them adds nothing an on-path
// adversary lacks). It contains no per-request records, no identifiers,
// no pseudonyms, and no fine-grained timestamps — the adversary test
// asserts all of that mechanically.
type Report struct {
	// TargetS is the configured shuffle size S.
	TargetS int `json:"target_s"`
	// Objective is the occupancy SLO objective.
	Objective float64 `json:"objective"`
	// State is the SLO state ("ok", "warn", "violated").
	State string `json:"state"`
	// StateSeconds is how long the auditor has been in this state,
	// coarsened to whole seconds.
	StateSeconds int64 `json:"state_seconds"`
	// EffectiveAnonymity is the smallest batch any epoch released within
	// the shortest window — the worst 1/batch linking bound any request
	// recently got (0 when no epochs observed).
	EffectiveAnonymity int `json:"effective_anonymity"`
	// WorstEpochBatch is the lifetime worst-epoch watermark.
	WorstEpochBatch int `json:"worst_epoch_batch"`
	// EpochsTotal / UnderfilledTotal are lifetime counters.
	EpochsTotal      uint64 `json:"epochs_total"`
	UnderfilledTotal uint64 `json:"underfilled_total"`
	// Violations / Warns count state transitions.
	Violations uint64 `json:"violations_total"`
	Warns      uint64 `json:"warns_total"`
	// Windows are the burn-rate evaluations, shortest first.
	Windows []windowEval `json:"windows"`
	// Nodes are per-node epoch aggregates, sorted by name.
	Nodes []NodeReport `json:"nodes"`
	// KeyAges reports seconds since each layer's last rotation (or
	// baseline), coarsened to whole seconds.
	KeyAges map[string]int64 `json:"key_age_seconds,omitempty"`
	// Breached lists layers with detected, unremediated compromises.
	Breached []string `json:"breached,omitempty"`
	// DegradedChecks lists registered checks currently firing.
	DegradedChecks []string `json:"degraded_checks,omitempty"`
}

// NodeReport is one node's epoch aggregate.
type NodeReport struct {
	Node        string `json:"node"`
	Epochs      uint64 `json:"epochs"`
	Underfilled uint64 `json:"underfilled"`
	WorstBatch  int    `json:"worst_batch"`
	LastBatch   int    `json:"last_batch"`
	// RecentEpochs is the node's bounded epoch history (one entry per
	// shuffle flush, never per request), oldest first.
	RecentEpochs []EpochRecord `json:"recent_epochs"`
}

// windowEval is one window's occupancy evaluation.
type windowEval struct {
	Window      string  `json:"window"`
	Epochs      uint64  `json:"epochs"`
	Underfilled uint64  `json:"underfilled"`
	BurnRate    float64 `json:"burn_rate"`
	Burning     bool    `json:"burning"`
	// MinBatch is the windowed worst-epoch watermark: the smallest
	// effective anonymity set any request got within the window (0 when
	// the window saw no epochs).
	MinBatch int `json:"min_batch"`
}

// window evaluates the occupancy objective over w at now.
func (a *Auditor) window(w slo.Window, now time.Time) windowEval {
	ev := a.occ.Window(w, now)
	return windowEval{Window: w.Name, Epochs: ev.Good + ev.Bad, Underfilled: ev.Bad,
		BurnRate: ev.BurnRate, Burning: ev.Burning, MinBatch: a.occ.MinMark(w, now)}
}

// worstBatch is the lifetime worst-epoch watermark over every node (0
// before the first epoch).
func (a *Auditor) worstBatch() int {
	worst := 0
	for _, ns := range a.nodes {
		if worst == 0 || ns.worstBatch < worst {
			worst = ns.worstBatch
		}
	}
	return worst
}

// Report assembles the current assessment.
func (a *Auditor) Report() Report {
	var r Report
	a.Read(func(now time.Time, st slo.Status) {
		r = Report{
			TargetS:          a.cfg.TargetS,
			Objective:        a.cfg.Objective,
			State:            st.State.String(),
			StateSeconds:     int64(now.Sub(st.Since) / time.Second),
			WorstEpochBatch:  a.worstBatch(),
			EpochsTotal:      a.occupancy.Good + a.occupancy.Bad,
			UnderfilledTotal: a.occupancy.Bad,
			Violations:       st.Violations,
			Warns:            st.Warns,
			DegradedChecks:   append([]string(nil), st.Firing...),
		}
		for _, w := range a.Windows() {
			r.Windows = append(r.Windows, a.window(w, now))
		}
		r.EffectiveAnonymity = r.Windows[0].MinBatch
		for name, ns := range a.nodes {
			r.Nodes = append(r.Nodes, NodeReport{
				Node:         name,
				Epochs:       ns.epochs,
				Underfilled:  ns.underfilled,
				WorstBatch:   ns.worstBatch,
				LastBatch:    ns.lastBatch,
				RecentEpochs: append([]EpochRecord(nil), ns.recent...),
			})
		}
		if len(a.rotations) > 0 {
			r.KeyAges = make(map[string]int64, len(a.rotations))
			for layer, at := range a.rotations {
				r.KeyAges[layer] = int64(now.Sub(at) / time.Second)
			}
		}
		for layer := range a.breaches {
			r.Breached = append(r.Breached, layer)
		}
	})
	sort.Slice(r.Nodes, func(i, j int) bool { return r.Nodes[i].Node < r.Nodes[j].Node })
	sort.Strings(r.Breached)
	return r
}

// PrivacyPath is the debug endpoint the report is served on.
const PrivacyPath = "/privacy"

// Handler serves the JSON report (GET /privacy).
func (a *Auditor) Handler() http.Handler {
	return slo.Handler(func() any { return a.Report() })
}

// RegisterMetrics exposes the auditor on the registry: the engine's
// pprox_audit_slo_state (0 ok, 1 warn, 2 violated),
// pprox_audit_violations_total, pprox_audit_warns_total and
// pprox_audit_burn_rate{window}, and
//
//   - pprox_audit_effective_anonymity_set gauge (shortest-window min
//     batch) and pprox_audit_worst_epoch_batch gauge (lifetime),
//   - pprox_audit_epochs_total / pprox_audit_underfilled_epochs_total
//     counters,
//   - pprox_audit_key_age_seconds{layer} gauges (when rotation is wired),
//   - pprox_audit_breached_layers gauge.
func (a *Auditor) RegisterMetrics(r *metrics.Registry) {
	a.Engine.RegisterMetrics(r, slo.Families{Kind: "privacy", State: "pprox_audit_slo_state", Prefix: "pprox_audit"})
	r.Gauge("pprox_audit_effective_anonymity_set",
		"Smallest shuffle batch released within the shortest burn window.",
		a.Sampler(func(now time.Time) float64 { return float64(a.occ.MinMark(a.Windows()[0], now)) }))
	r.Gauge("pprox_audit_worst_epoch_batch",
		"Lifetime worst-epoch watermark (smallest batch ever released).",
		a.Sampler(func(time.Time) float64 { return float64(a.worstBatch()) }))
	r.CounterFunc("pprox_audit_epochs_total",
		"Shuffle epochs observed by the auditor.",
		a.Sampler(func(time.Time) float64 { return float64(a.occupancy.Good + a.occupancy.Bad) }))
	r.CounterFunc("pprox_audit_underfilled_epochs_total",
		"Epochs released with fewer than S messages.",
		a.Sampler(func(time.Time) float64 { return float64(a.occupancy.Bad) }))
	r.Gauge("pprox_audit_breached_layers",
		"Layers with a detected, unremediated enclave compromise.",
		a.Sampler(func(time.Time) float64 { return float64(len(a.breaches)) }))
	ages := r.GaugeVec("pprox_audit_key_age_seconds",
		"Seconds since each layer's pseudonymization key was rotated or baselined.", "layer")
	var layers []string
	a.Read(func(time.Time, slo.Status) {
		for layer := range a.rotations {
			layers = append(layers, layer)
		}
	})
	for _, layer := range layers {
		ages.With(a.Sampler(func(now time.Time) float64 { return now.Sub(a.rotations[layer]).Seconds() }), layer)
	}
}
