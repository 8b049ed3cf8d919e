// Package perfslo is the performance-SLO engine: internal/slo's latency
// instance, the counterpart of internal/audit's privacy auditor. PProx's
// claim is privacy *at production latency* — the paper's evaluation is a
// latency/throughput story — so a latency regression is a first-class
// incident, not a curiosity. This package states per-stage latency
// objectives ("p99 of shuffle_wait ≤ 500ms") over the lock-free
// histograms the pipeline already maintains: an objective's good events
// are the observations at or below its threshold, its bad events the
// rest, and the engine's multi-window burn rates judge them exactly as
// they judge epoch occupancy.
//
// The evaluator never touches the request hot path: observation stays in
// the existing atomic histogram instruments, and evaluation is driven by
// shuffle-epoch flushes (Sample) plus on-demand /perf reads. That also
// fixes the privacy story for exemplars. A conventional latency exemplar
// carries a trace/request id — exactly the ingress↔egress correlator the
// proxy layers exist to destroy. Here a breach exemplar is a shuffle
// EPOCH number: a p99 spike links to "epoch 17 on ua-0", whose epoch
// record holds only that epoch's stage-histogram bucket counts. The
// adversary test in internal/adversary proves /perf plus exemplars add
// zero linking advantage.
package perfslo

import (
	"strconv"
	"sync/atomic"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/slo"
)

// Config parameterizes the evaluator: its burn-rate windows (the privacy
// auditor's 5m/1h default, so operators reason about one alerting
// scheme) and its clock.
type Config = slo.Config

// State is a performance SLO's position: the engine's states.
type State = slo.State

// The states callers compare against.
const (
	StateOK       = slo.StateOK
	StateViolated = slo.StateViolated
)

// maxExemplars bounds the per-objective breach-exemplar ring. Exemplars
// are epoch ids only — the ring is O(epochs), never O(requests).
const maxExemplars = 32

// objective is one latency SLO: "quantile q of this histogram ≤
// threshold". good = observations ≤ threshold (at histogram resolution),
// bad = the rest, budget = 1−q.
type objective struct {
	*slo.Objective
	name string // e.g. "shuffle_wait"
	node string // node whose epoch flushes drive sampling, e.g. "ua-0"

	hist         *metrics.Histogram
	quantile     float64
	rawThreshold float64 // as configured
	threshold    float64 // aligned UP to a bucket bound (see AlignBound)

	exemplars []uint64 // breach epoch ids, oldest first, bounded ring
	lastEpoch uint64   // last epoch sampled (exemplar attribution)
}

// Evaluator is the performance-SLO engine. All methods are safe for
// concurrent use; evaluation runs on shuffle flush or report reads,
// never per request — the histogram observation path stays lock-free.
type Evaluator struct {
	*slo.Engine
	objectives []*objective  // guarded by the engine lock
	newest     atomic.Uint64 // newest breach exemplar across objectives
}

// New creates an evaluator.
func New(cfg Config) *Evaluator {
	return &Evaluator{Engine: slo.New(cfg, "performance SLO state transition")}
}

// AddObjective registers one latency SLO: quantile q (e.g. 0.99) of the
// histogram's observations must stay ≤ threshold seconds. The threshold
// is aligned UP to the histogram's nearest bucket bound so the good/bad
// split is exact at histogram resolution; node names which node's epoch
// flushes drive sampling (and appears in the report — it identifies a
// machine, never a request).
func (e *Evaluator) AddObjective(name, node string, hist *metrics.Histogram, q, threshold float64) {
	if hist == nil || q <= 0 || q >= 1 {
		return
	}
	o := &objective{name: name, node: node, hist: hist, quantile: q,
		rawThreshold: threshold, threshold: hist.AlignBound(threshold)}
	o.Objective = &slo.Objective{
		Budget: 1 - q,
		Read: func() slo.Reading {
			good, bad := hist.Split(o.threshold)
			return slo.Reading{Good: good, Bad: bad}
		},
		Describe: func(_ time.Time, s slo.State, _ slo.Window) string {
			return "latency objective " + name + " on " + node + " " + s.String()
		},
		Labels: []string{name, node},
	}
	e.Update(func(time.Time) {
		e.objectives = append(e.objectives, o)
		e.Add(o.Objective)
	})
}

// Sample records an epoch flush on a node: every objective keyed to that
// node records a cumulative histogram reading stamped with the flush
// time, and — if the objective is burning and the epoch's record holds
// over-threshold observations of its stage — the epoch number as a breach
// exemplar. epoch and stages are the layer's epoch record (its number,
// from 1, and its stage → le → count growth), so an exemplar names a
// record whose counts hold the breach, whatever lands in the histograms
// while the record is passed around.
func (e *Evaluator) Sample(node string, epoch uint64, stages map[string]map[string]uint64) {
	e.Update(func(now time.Time) {
		for _, o := range e.objectives {
			if o.node != node {
				continue
			}
			o.Record(now, 0)
			o.lastEpoch = epoch
			var bad uint64
			for le, n := range stages[o.name] {
				if bound, _ := strconv.ParseFloat(le, 64); bound > o.threshold {
					bad += n
				}
			}
			if bad == 0 {
				continue
			}
			if s, _ := o.Evaluate(now); s != slo.StateOK {
				e.exemplar(o, epoch)
			}
		}
	})
}

// exemplar appends epoch to o's breach ring, once per epoch.
func (e *Evaluator) exemplar(o *objective, epoch uint64) {
	if n := len(o.exemplars); n > 0 && o.exemplars[n-1] == epoch {
		return
	}
	o.exemplars = append(o.exemplars, epoch)
	if len(o.exemplars) > maxExemplars {
		o.exemplars = o.exemplars[len(o.exemplars)-maxExemplars:]
	}
	if epoch > e.newest.Load() {
		e.newest.Store(epoch)
	}
}

// NewestExemplar is the most recent breach epoch across the objectives (0
// when none: epochs number from 1), so a profile capture's meta.json
// points at the shuffle epoch that tripped it. It takes no lock: a
// transition hook may call it.
func (e *Evaluator) NewestExemplar() uint64 { return e.newest.Load() }
