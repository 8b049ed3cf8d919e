// Package audit is the continuous privacy-SLO engine. PProx's guarantee
// is quantitative — a network adversary links an ingress message to its
// egress with probability at most 1/S — and every term of that bound is
// an operational quantity that can silently degrade: a shuffle epoch
// that flushes on the timer with fewer than S messages shrinks the
// anonymity set to the batch it actually released; a pseudonymization
// key that outlives a breach hands the adversary the LRS database; a
// breaker-induced traffic collapse starves the shuffler until every
// epoch is a singleton. The auditor is internal/slo's privacy instance:
// it consumes the instrument streams (epoch batch sizes per node, key
// rotations, enclave compromise flags, breaker/ejection state) and
// maintains
//
//   - an online estimate of the effective anonymity set per epoch (the
//     released batch size, the exact denominator of the linking bound
//     for the requests in that epoch),
//   - a rolling worst-epoch watermark (lifetime and windowed), and
//   - the occupancy objective ("at least 99% of epochs fully occupied")
//     on the engine's multi-window burn rates, with state transitions
//     (ok → warn → violated) exported as metrics, logged, and served as
//     an epoch-granular JSON report on /privacy.
//
// The report deliberately contains nothing an on-path adversary does not
// already observe: batch sizes are visible on the wire as message
// bursts, and everything else is configuration or coarse aggregate. The
// test in internal/adversary proves the endpoint adds zero linking
// advantage, mirroring the trace-export proof.
package audit

import (
	"strconv"
	"time"

	"pprox/internal/slo"
)

// State is the privacy SLO's position: the engine's states.
type State = slo.State

// The states callers compare against.
const (
	StateOK       = slo.StateOK
	StateViolated = slo.StateViolated
)

// Config parameterizes the auditor.
type Config struct {
	// TargetS is the configured shuffle size S — the denominator of the
	// linking bound an epoch must reach to be fully occupied.
	TargetS int
	// Objective is the fraction of epochs that must be fully occupied
	// (default 0.99; the error budget is 1−Objective).
	Objective float64
	// MaxKeyAge warns when a layer's pseudonymization key has not
	// rotated within this horizon (0 disables; key age only matters for
	// deployments that arm rotation).
	MaxKeyAge time.Duration
	// Config holds the burn-rate windows and the clock.
	slo.Config
}

// nodeStats aggregates one node's epoch history.
type nodeStats struct {
	epochs      uint64
	underfilled uint64
	worstBatch  int // lifetime minimum released batch
	lastBatch   int
	recent      []EpochRecord // bounded ring, oldest first
}

// maxRecentEpochs bounds the per-node epoch history kept for the report.
// The cap is in epochs, never requests: the report's size is O(epochs).
const maxRecentEpochs = 256

// EpochRecord is one epoch in the report: sequence number within the
// node's stream, released batch size (= the effective anonymity set of
// every request in the epoch), and whether it under-filled. It carries
// no timestamps and nothing per-request.
type EpochRecord struct {
	Seq         uint64 `json:"seq"`
	Batch       int    `json:"batch"`
	Underfilled bool   `json:"underfilled"`
}

// Auditor is the privacy-SLO engine. Its one objective is occupancy:
// good = full epochs, bad = under-filled ones, read at every
// ObserveEpoch, each reading marked with its epoch's batch so the
// windowed minimum batch is exact. All methods are safe for concurrent
// use; observation runs on shuffler flush, not per request.
type Auditor struct {
	*slo.Engine
	cfg Config
	occ *slo.Objective

	// Guarded by the engine lock.
	occupancy slo.Reading // full and under-filled epochs, lifetime
	nodes     map[string]*nodeStats
	rotations map[string]time.Time // layer → last rotation (or baseline)
	breaches  map[string]time.Time // layer → unremediated breach time
}

// New creates an auditor.
func New(cfg Config) *Auditor {
	if cfg.TargetS < 1 {
		cfg.TargetS = 1
	}
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	a := &Auditor{
		Engine:    slo.New(cfg.Config, "privacy SLO state transition", "target_s", cfg.TargetS),
		cfg:       cfg,
		nodes:     make(map[string]*nodeStats),
		rotations: make(map[string]time.Time),
		breaches:  make(map[string]time.Time),
	}
	a.occ = a.Add(&slo.Objective{
		Budget:   1 - cfg.Objective,
		Read:     func() slo.Reading { return a.occupancy },
		Describe: a.describe,
	})
	a.AddSignal(a.keySignal)
	return a
}

// ObserveEpoch records one shuffle-epoch release on a node: batch is the
// number of messages the shuffler released together, i.e. the effective
// anonymity set of every request in that epoch. Wire it to the layer's
// epoch observer (shuffle flush).
func (a *Auditor) ObserveEpoch(node string, batch int) {
	a.Update(func(now time.Time) {
		under := batch < a.cfg.TargetS
		ns := a.nodes[node]
		if ns == nil {
			ns = &nodeStats{worstBatch: batch}
			a.nodes[node] = ns
		}
		ns.epochs++
		if under {
			a.occupancy.Bad++
			ns.underfilled++
		} else {
			a.occupancy.Good++
		}
		ns.worstBatch = min(ns.worstBatch, batch)
		ns.lastBatch = batch
		ns.recent = append(ns.recent, EpochRecord{Seq: ns.epochs, Batch: batch, Underfilled: under})
		if len(ns.recent) > maxRecentEpochs {
			ns.recent = ns.recent[len(ns.recent)-maxRecentEpochs:]
		}
		a.occ.Record(now, batch)
	})
}

// ObserveBreach records a detected enclave compromise on a layer. The
// state is Violated until ObserveRotation reports the layer's keys
// rotated — stolen permanent keys de-pseudonymize the LRS database for as
// long as they stay in service (§2.3 footnote 1).
func (a *Auditor) ObserveBreach(layer string) {
	a.Update(func(now time.Time) {
		a.breaches[layer] = now
	})
}

// ObserveRotation records a completed key rotation for a layer, clearing
// its breach flag and resetting its key age.
func (a *Auditor) ObserveRotation(layer string) {
	a.Update(func(now time.Time) {
		a.rotations[layer] = now
		delete(a.breaches, layer)
	})
}

// SetKeyBaseline marks a layer's key as fresh when its first instance is
// provisioned, so MaxKeyAge measures from provisioning rather than from an
// unknown past. Every instance of a layer calls it; only the first call,
// before any rotation, sets the age.
func (a *Auditor) SetKeyBaseline(layer string) {
	a.Update(func(now time.Time) {
		if _, ok := a.rotations[layer]; !ok {
			a.rotations[layer] = now
		}
	})
}

// keySignal holds the SLO violated while a layer's breach is
// unremediated — an unremediated compromise breaks the guarantee
// outright, whatever the shuffler does — and at warn while a layer's key
// is older than MaxKeyAge. The reason names the first such layer in
// sorted order, so identical runs give identical reasons.
func (a *Auditor) keySignal(now time.Time) (slo.State, string) {
	if layer := firstLayer(a.breaches, func(time.Time) bool { return true }); layer != "" {
		return slo.StateViolated, "unremediated breach on " + layer
	}
	if a.cfg.MaxKeyAge > 0 {
		stale := func(at time.Time) bool { return now.Sub(at) > a.cfg.MaxKeyAge }
		if layer := firstLayer(a.rotations, stale); layer != "" {
			return slo.StateWarn, "stale pseudonymization key on " + layer
		}
	}
	return slo.StateOK, ""
}

// firstLayer is the first layer in sorted order whose time passes keep
// ("" when none does).
func firstLayer(layers map[string]time.Time, keep func(time.Time) bool) string {
	first := ""
	for layer, at := range layers {
		if keep(at) && (first == "" || layer < first) {
			first = layer
		}
	}
	return first
}

// describe names an occupancy transition; a violation carries the
// smallest batch the longest window saw.
func (a *Auditor) describe(now time.Time, s slo.State, w slo.Window) string {
	if s == slo.StateViolated {
		return "occupancy SLO burning in every window (min effective anonymity " +
			strconv.Itoa(a.occ.MinMark(w, now)) + " < S=" + strconv.Itoa(a.cfg.TargetS) + ")"
	}
	return "occupancy budget burning in window " + w.Name
}

// Stats returns lifetime counters: epochs observed, under-filled epochs,
// violation transitions, and warn transitions.
func (a *Auditor) Stats() (epochs, underfilled, violations, warns uint64) {
	a.Read(func(_ time.Time, st slo.Status) {
		epochs, underfilled = a.occupancy.Good+a.occupancy.Bad, a.occupancy.Bad
		violations, warns = st.Violations, st.Warns
	})
	return epochs, underfilled, violations, warns
}
