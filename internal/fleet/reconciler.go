package fleet

import (
	"fmt"
	"sync"
	"time"

	"pprox/internal/autoscale"
)

// Driver is what the reconciler actuates: the side that can actually
// create and retire UA/IA instance pairs. The cluster deployment
// implements it in-process; a production control plane would implement
// it against an orchestrator.
type Driver interface {
	// Pairs reports the current number of live UA/IA pairs, counting
	// pairs still pending admission but not pairs already draining.
	Pairs() int
	// AddPair spawns one UA/IA pair and registers it; the registry
	// admits it at the next shuffle-epoch boundary.
	AddPair() error
	// DrainPair picks one pair, drains it at an epoch boundary, and
	// retires it once its final epoch has flushed whole.
	DrainPair() error
}

// Action names what a reconciler tick decided to do.
type Action string

const (
	ActionHold  Action = "hold"
	ActionUp    Action = "scale-up"
	ActionDown  Action = "scale-down"
	ActionError Action = "error"
)

// Decision is one reconciler tick: the signals it saw and what it did.
// Decisions are kept in a bounded ring and exported through Overview so
// operators can replay why the fleet is the size it is.
type Decision struct {
	Seq       uint64  `json:"seq"`
	RPS       float64 `json:"rps"`
	Occupancy float64 `json:"occupancy"`
	Current   int     `json:"current"`
	Desired   int     `json:"desired"`
	Action    Action  `json:"action"`
	Err       string  `json:"err,omitempty"`
}

// Overview is the fleet-membership + scaling view the registry host
// serves on /fleet: who is in the fleet, in what state, and the recent
// scaling decisions that produced that shape.
type Overview struct {
	CurrentPairs int        `json:"current_pairs"`
	DesiredPairs int        `json:"desired_pairs"`
	Endpoints    []Endpoint `json:"endpoints"`
	Decisions    []Decision `json:"decisions,omitempty"`
}

// ReconcilerConfig wires a Reconciler.
type ReconcilerConfig struct {
	// Controller is the scaling policy. Required.
	Controller *autoscale.Controller
	// Signals samples the live inputs (autoscale.SignalSource.Sample or
	// equivalent). Required.
	Signals func() autoscale.Signals
	// Driver actuates pair count changes. Required.
	Driver Driver
	// Registry, when set, gets AdmitIdle/Prune housekeeping each tick
	// so pending endpoints on an idle fleet (no traffic, so no epoch
	// boundaries) still become routable.
	Registry *Registry
	// AdmitIdleAfter bounds how long a pending endpoint may wait for an
	// epoch boundary before being admitted anyway (an idle fleet has no
	// traffic and so no boundaries). Zero means 5s.
	AdmitIdleAfter time.Duration
	// Keep bounds the decision ring. Zero means 16.
	Keep int
	// Logger, when set, receives one line per non-hold decision.
	Logger func(format string, args ...any)
}

// Reconciler closes the loop between the live signals and the driver:
// each Tick samples signals, asks the controller for the desired pair
// count, and moves the actual count one step toward it. One step per
// tick keeps churn observable and lets the admission/drain machinery
// finish one membership change before the next begins.
type Reconciler struct {
	cfg ReconcilerConfig

	mu        sync.Mutex
	seq       uint64
	decisions []Decision
	desired   int
}

// NewReconciler builds a reconciler. Controller, Signals and Driver are
// required.
func NewReconciler(cfg ReconcilerConfig) (*Reconciler, error) {
	if cfg.Controller == nil || cfg.Signals == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("fleet: reconciler needs Controller, Signals and Driver")
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 16
	}
	if cfg.AdmitIdleAfter <= 0 {
		cfg.AdmitIdleAfter = 5 * time.Second
	}
	return &Reconciler{cfg: cfg, desired: -1}, nil
}

// Tick runs one reconcile pass and returns the decision it recorded.
func (r *Reconciler) Tick() Decision {
	if reg := r.cfg.Registry; reg != nil {
		reg.Prune()
		reg.AdmitIdle(r.cfg.AdmitIdleAfter)
	}
	sig := r.cfg.Signals()
	current := r.cfg.Driver.Pairs()
	desired := r.cfg.Controller.DesiredLive(sig, current)

	d := Decision{
		RPS:       sig.RPS,
		Occupancy: sig.Occupancy,
		Current:   current,
		Desired:   desired,
		Action:    ActionHold,
	}
	var err error
	switch {
	case desired > current:
		d.Action = ActionUp
		err = r.cfg.Driver.AddPair()
	case desired < current:
		d.Action = ActionDown
		err = r.cfg.Driver.DrainPair()
	}
	if err != nil {
		d.Action = ActionError
		d.Err = err.Error()
	}

	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	r.desired = desired
	r.decisions = append(r.decisions, d)
	if len(r.decisions) > r.cfg.Keep {
		r.decisions = r.decisions[len(r.decisions)-r.cfg.Keep:]
	}
	r.mu.Unlock()

	if r.cfg.Logger != nil && d.Action != ActionHold {
		r.cfg.Logger("fleet: %s current=%d desired=%d rps=%.1f occ=%.2f err=%q",
			d.Action, d.Current, d.Desired, d.RPS, d.Occupancy, d.Err)
	}
	return d
}

// Run ticks the reconciler on the given interval until the returned
// stop function is called. Stop blocks until any in-flight tick has
// finished, so a caller tearing the driver down afterwards cannot race
// a scaling action still in progress.
func (r *Reconciler) Run(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	loopDone := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(loopDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Tick()
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-loopDone
	}
}

// Decisions returns the recent decision ring, oldest first.
func (r *Reconciler) Decisions() []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Decision, len(r.decisions))
	copy(out, r.decisions)
	return out
}

// Desired returns the most recent desired pair count, or -1 before the
// first tick.
func (r *Reconciler) Desired() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.desired
}

// Overview assembles the exported fleet view. Either argument may be
// nil; missing parts are zero.
func BuildOverview(reg *Registry, rec *Reconciler, currentPairs int) *Overview {
	ov := &Overview{CurrentPairs: currentPairs, DesiredPairs: currentPairs}
	if reg != nil {
		ov.Endpoints = reg.Membership()
	}
	if rec != nil {
		ov.Decisions = rec.Decisions()
		if d := rec.Desired(); d >= 0 {
			ov.DesiredPairs = d
		}
	}
	return ov
}
