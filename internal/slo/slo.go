// Package slo is the one multi-window burn-rate SLO engine. An objective
// counts good and bad events; the engine keeps a ring of cumulative
// (good, bad) readings per objective, takes each window's burn rate
// against the live reading, and rolls objectives, signals and sampled
// checks into one ok/warn/violated state whose transitions it counts,
// logs and hands to a hook. internal/audit (shuffle-epoch occupancy) and
// internal/perfslo (stage latency) are its two instances; each keeps only
// what it measures and its report.
//
// The one rule for a window's edge: an event counts in a window iff it
// was recorded strictly after now − Duration.
package slo

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"pprox/internal/metrics"
)

// State is an SLO's current position. Numeric values are stable: metrics
// export them as a gauge.
type State int

// SLO states.
const (
	// StateOK: every objective within budget in every window, no check
	// firing.
	StateOK State = 0
	// StateWarn: some objective's budget is burning in at least one
	// window, or a warn check fires.
	StateWarn State = 1
	// StateViolated: some objective is burning in EVERY window, or a
	// violation check fires.
	StateViolated State = 2
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StateViolated:
		return "violated"
	default:
		return "ok"
	}
}

// Window is one burn-rate evaluation window.
type Window struct {
	// Name labels the window in metrics and reports (e.g. "5m").
	Name string
	// Duration is the lookback.
	Duration time.Duration
	// Burn is the burn-rate threshold: the window trips when (bad
	// fraction) / (error budget) reaches it. 1.0 means "burning the whole
	// budget at sustained rate"; higher values catch fast burns sooner
	// relative to the window length.
	Burn float64
}

// Config parameterizes an engine.
type Config struct {
	// Windows are the burn-rate windows, evaluated shortest first
	// (default 5m and 1h, both with Burn 1.0). An objective is violated
	// only when EVERY window burns — the standard multi-window guard
	// against one slow epoch paging an operator — and warns when any
	// window burns.
	Windows []Window
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Reading is an objective's cumulative count of good and bad events.
// Good and bad each never decrease from one reading of an objective to
// the next: that is the contract every source keeps (a histogram splits
// at its threshold in one pass, see metrics.Histogram.Split), and what
// makes every window's delta a count.
type Reading struct{ Good, Bad uint64 }

// sample is one recorded reading; mark is the instance's value for it
// (the auditor's epoch batch).
type sample struct {
	at time.Time
	Reading
	mark int
}

// Objective is one SLO: bad events may be at most Budget of all events in
// every window. Its methods run inside the engine's Update or Read.
type Objective struct {
	// Budget is the error budget: the fraction of events that may be bad.
	Budget float64
	// Read takes the live cumulative reading.
	Read func() Reading
	// Describe says why the objective holds the SLO at s, given its
	// longest burning window. It runs only on a transition.
	Describe func(now time.Time, s State, w Window) string
	// Labels are the objective's values for the instance's label names on
	// the burn-rate family.
	Labels []string

	windows []Window
	ring    []sample // oldest first; the first may be the longest window's baseline
	state   State
}

// WindowEval is one window's evaluation of an objective.
type WindowEval struct {
	Good, Bad uint64
	BurnRate  float64
	Burning   bool
}

// Record appends the live reading at now, carrying mark, and prunes the
// ring. It returns the previous recorded reading and the new one.
func (o *Objective) Record(now time.Time, mark int) (prev, cur Reading) {
	if n := len(o.ring); n > 0 {
		prev = o.ring[n-1].Reading
	}
	cur = o.Read()
	o.ring = append(o.ring, sample{at: now, Reading: cur, mark: mark})
	// The newest sample at or before the longest window's horizon is that
	// window's baseline; everything older goes.
	if i := o.after(now.Add(-o.windows[len(o.windows)-1].Duration)) - 1; i > 0 {
		o.ring = o.ring[i:]
	}
	return prev, cur
}

// after is the index of the first sample recorded strictly after horizon.
func (o *Objective) after(horizon time.Time) int {
	return sort.Search(len(o.ring), func(i int) bool { return o.ring[i].at.After(horizon) })
}

// Window evaluates w at now against the live reading.
func (o *Objective) Window(w Window, now time.Time) WindowEval {
	return o.window(w, now, o.Read())
}

// window is the delta between live and the newest sample at or before
// w's horizon (the zero reading of process start when there is none),
// with its burn rate.
func (o *Objective) window(w Window, now time.Time, live Reading) WindowEval {
	var base Reading
	if i := o.after(now.Add(-w.Duration)); i > 0 {
		base = o.ring[i-1].Reading
	}
	ev := WindowEval{Good: live.Good - base.Good, Bad: live.Bad - base.Bad}
	if total := ev.Good + ev.Bad; total > 0 {
		ev.BurnRate = float64(ev.Bad) / float64(total) / o.Budget
		ev.Burning = ev.BurnRate >= w.Burn
	}
	return ev
}

// MinMark is the smallest mark recorded inside w at now (0 when none).
func (o *Objective) MinMark(w Window, now time.Time) int {
	m := 0
	for _, s := range o.ring[o.after(now.Add(-w.Duration)):] {
		if m == 0 || s.mark < m {
			m = s.mark
		}
	}
	return m
}

// Evaluate derives the objective's state at now — violated iff every
// window burns, warn iff any does — and returns it with the longest
// burning window.
func (o *Objective) Evaluate(now time.Time) (State, Window) {
	live := o.Read()
	burning := 0
	var longest Window
	for _, w := range o.windows {
		if o.window(w, now, live).Burning {
			burning++
			longest = w
		}
	}
	switch {
	case burning == len(o.windows):
		o.state = StateViolated
	case burning > 0:
		o.state = StateWarn
	default:
		o.state = StateOK
	}
	return o.state, longest
}

// State is the state the last evaluation left the objective in.
func (o *Objective) State() State { return o.state }

// check is a sampled named signal, holding the SLO at state while fn
// returns true.
type check struct {
	name  string
	fn    func() bool
	state State
}

type transition struct {
	from, to State
	reason   string
}

// Status is the engine's state as Read hands it over.
type Status struct {
	State      State
	Since      time.Time
	Violations uint64 // transitions into StateViolated
	Warns      uint64 // transitions into StateWarn
	// Firing names the checks firing at this evaluation; valid only
	// inside Read.
	Firing []string
}

// Engine evaluates objectives, signals and checks into one state. All
// methods are safe for concurrent use. An instance changes its own
// fields inside Update and reads them inside Read: both run under the
// engine's lock, so the instance and its objectives share one mutex.
type Engine struct {
	cfg    Config
	logMsg string
	logKV  []any

	// OnTransition, when set, receives every state change exactly once,
	// in the order the engine made them, outside the engine lock and
	// before the call that caused it returns. It must not call back into
	// a method that evaluates: it would wait for its own delivery.
	OnTransition func(from, to State, reason string)

	mu         sync.Mutex
	objectives []*Objective
	signals    []func(now time.Time) (State, string)
	checks     []check
	firing     []string
	logger     *slog.Logger
	state      State
	since      time.Time
	violations uint64
	warns      uint64
	pending    []transition

	// delivering serialises delivery: transitions leave in the order they
	// were queued, and a caller whose transition another caller is
	// delivering waits for it.
	delivering sync.Mutex
}

// New creates an engine whose transitions log msg with the extra
// key-value attributes kv.
func New(cfg Config, msg string, kv ...any) *Engine {
	if len(cfg.Windows) == 0 {
		cfg.Windows = []Window{
			{Name: "5m", Duration: 5 * time.Minute, Burn: 1},
			{Name: "1h", Duration: time.Hour, Burn: 1},
		}
	}
	cfg.Windows = append([]Window(nil), cfg.Windows...)
	for i := range cfg.Windows {
		if cfg.Windows[i].Burn <= 0 {
			cfg.Windows[i].Burn = 1
		}
	}
	sort.Slice(cfg.Windows, func(i, j int) bool { return cfg.Windows[i].Duration < cfg.Windows[j].Duration })
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{cfg: cfg, logMsg: msg, logKV: kv, since: cfg.Now()}
}

// Windows are the engine's burn-rate windows, shortest first.
func (e *Engine) Windows() []Window { return e.cfg.Windows }

// Add registers an objective. Call it before the engine is shared, or
// inside Update.
func (e *Engine) Add(o *Objective) *Objective {
	o.windows = e.cfg.Windows
	e.objectives = append(e.objectives, o)
	return o
}

// AddSignal registers fn, evaluated before the checks at every
// evaluation: it returns the state it holds the SLO at and why. Call it
// before the engine is shared.
func (e *Engine) AddSignal(fn func(now time.Time) (State, string)) {
	e.signals = append(e.signals, fn)
}

// AddCheck registers a sampled degraded-path signal (open breaker,
// ejected backend): while fn returns true the state is at least Warn.
func (e *Engine) AddCheck(name string, fn func() bool) {
	e.Update(func(time.Time) { e.checks = append(e.checks, check{name, fn, StateWarn}) })
}

// AddViolationCheck registers a sampled signal that forces StateViolated
// while true — an unremediated enclave compromise flag.
func (e *Engine) AddViolationCheck(name string, fn func() bool) {
	e.Update(func(time.Time) { e.checks = append(e.checks, check{name, fn, StateViolated}) })
}

// SetLogger installs the logger transitions go to. Nil disables logging.
func (e *Engine) SetLogger(l *slog.Logger) {
	e.mu.Lock()
	e.logger = l
	e.mu.Unlock()
}

// Update runs change (nil: none) under the engine lock at the engine's
// now, re-evaluates, and delivers the transitions it made before
// returning.
func (e *Engine) Update(change func(now time.Time)) { e.do(change, nil) }

// Read re-evaluates against the clock — windows empty out as time passes
// even with no new events — runs read under the engine lock, and delivers
// the transitions the evaluation made before returning.
func (e *Engine) Read(read func(now time.Time, s Status)) { e.do(nil, read) }

// Sampler returns a metrics sampler: fn's value, read inside Read.
func (e *Engine) Sampler(fn func(now time.Time) float64) func() float64 {
	return func() float64 {
		var v float64
		e.Read(func(now time.Time, _ Status) { v = fn(now) })
		return v
	}
}

func (e *Engine) do(change func(time.Time), read func(time.Time, Status)) {
	e.mu.Lock()
	// Read the clock under the lock: rings stay in time order.
	now := e.cfg.Now()
	if change != nil {
		change(now)
	}
	e.evaluateLocked(now)
	if read != nil {
		read(now, Status{State: e.state, Since: e.since, Violations: e.violations, Warns: e.warns, Firing: e.firing})
	}
	queued := len(e.pending) > 0
	e.mu.Unlock()
	if queued {
		e.deliver()
	}
}

// State returns the current state, re-evaluated against the clock.
func (e *Engine) State() State {
	var s State
	e.Read(func(_ time.Time, st Status) { s = st.State })
	return s
}

// Transitions returns the lifetime transition counters.
func (e *Engine) Transitions() (violations, warns uint64) {
	e.Read(func(_ time.Time, st Status) { violations, warns = st.Violations, st.Warns })
	return violations, warns
}

// evaluateLocked sets the state to the max over signals, checks and
// objectives — the first to reach it gives the reason — and queues a
// transition when it changed.
func (e *Engine) evaluateLocked(now time.Time) {
	next, reason := StateOK, ""
	for _, sig := range e.signals {
		if s, why := sig(now); s > next {
			next, reason = s, why
		}
	}
	e.firing = e.firing[:0]
	for _, c := range e.checks {
		if !c.fn() {
			continue
		}
		e.firing = append(e.firing, c.name)
		if c.state > next {
			next, reason = c.state, c.name
		}
	}
	var top *Objective
	var topWindow Window
	for _, o := range e.objectives {
		if s, w := o.Evaluate(now); s > next {
			next, top, topWindow = s, o, w
		}
	}
	if next == e.state {
		return
	}
	if top != nil {
		reason = top.Describe(now, next, topWindow)
	}
	e.pending = append(e.pending, transition{from: e.state, to: next, reason: reason})
	e.state, e.since = next, now
	switch next {
	case StateViolated:
		e.violations++
	case StateWarn:
		e.warns++
	}
}

// deliver logs and hands over every queued transition, in queue order.
func (e *Engine) deliver() {
	e.delivering.Lock()
	defer e.delivering.Unlock()
	e.mu.Lock()
	pending, logger, hook := e.pending, e.logger, e.OnTransition
	e.pending = nil
	e.mu.Unlock()
	for _, t := range pending {
		if logger != nil {
			logger.Warn(e.logMsg, append([]any{"from", t.from.String(), "to", t.to.String(), "reason", t.reason}, e.logKV...)...)
		}
		if hook != nil {
			hook(t.from, t.to, t.reason)
		}
	}
}

// Families names an instance's shared metric families.
type Families struct {
	// Kind names the SLO in help texts ("privacy", "performance").
	Kind string
	// State names the state gauge; Prefix+"_violations_total",
	// Prefix+"_warns_total" and Prefix+"_burn_rate" name the others.
	State, Prefix string
	// Labels name the values each objective's Labels carry on the
	// burn-rate family, before its "window" label.
	Labels []string
}

// RegisterMetrics exposes the state gauge (0 ok, 1 warn, 2 violated), the
// transition counters and one burn-rate gauge per objective and window.
// Objectives added later are not picked up.
func (e *Engine) RegisterMetrics(r *metrics.Registry, f Families) {
	r.Gauge(f.State, "State of the "+f.Kind+" SLO: 0 ok, 1 warn, 2 violated.", func() float64 {
		return float64(e.State())
	})
	r.CounterFunc(f.Prefix+"_violations_total", "Transitions into the violated "+f.Kind+"-SLO state.", func() float64 {
		v, _ := e.Transitions()
		return float64(v)
	})
	r.CounterFunc(f.Prefix+"_warns_total", "Transitions into the warn "+f.Kind+"-SLO state.", func() float64 {
		_, w := e.Transitions()
		return float64(w)
	})
	burn := r.GaugeVec(f.Prefix+"_burn_rate", "Error-budget burn rate of the "+f.Kind+" SLO per objective and window.",
		append(append([]string(nil), f.Labels...), "window")...)
	e.mu.Lock()
	objectives := append([]*Objective(nil), e.objectives...)
	e.mu.Unlock()
	for _, o := range objectives {
		for _, w := range e.cfg.Windows {
			burn.With(e.Sampler(func(now time.Time) float64 { return o.Window(w, now).BurnRate }),
				append(append([]string(nil), o.Labels...), w.Name)...)
		}
	}
}

// Handler serves report's result as JSON on GET.
func Handler(report func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(report())
	})
}
