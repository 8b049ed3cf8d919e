// Package fleet is the elastic-membership subsystem: a live route
// registry for UA/IA/LRS endpoints and a reconciler that drives the
// actual instance count from the autoscale policy (DESIGN.md §4j).
//
// The registry follows the gorouter blueprint — register, heartbeat,
// deregister, staleness pruning, generation-numbered backend sets a
// load balancer refreshes from — with one PProx-specific twist:
// membership changes are epoch-aligned. A newly registered endpoint is
// held PENDING until the next shuffle-epoch boundary, so it can never
// join a service mid-epoch and siphon messages out of a batch that is
// still filling; a scale-down candidate goes DRAINING — excluded from
// the routable set, but kept registered and serving — until its final
// shuffle epoch has flushed whole, and only then deregisters. Both
// rules exist for the same reason: the 1/S linking bound is an
// epoch-granular property, and churn must never shrink an anonymity
// set that requests have already been admitted into.
package fleet

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/metrics"
)

// State is an endpoint's position in the admission/drain lifecycle.
type State int

// Endpoint lifecycle states. Only StateActive endpoints are routable.
const (
	// StatePending: registered, awaiting admission at the next
	// shuffle-epoch boundary.
	StatePending State = iota
	// StateActive: in the routable set.
	StateActive
	// StateDraining: removed from the routable set but still registered
	// and serving, flushing its final shuffle epoch.
	StateDraining
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	default:
		return "unknown"
	}
}

// Endpoint is one registered endpoint's public view (Membership, the
// /fleet report, and the fleet HTTP API all render it).
type Endpoint struct {
	Service string `json:"service"`
	Addr    string `json:"addr"`
	State   string `json:"state"`
}

// Config parameterizes a Registry. The zero value works.
type Config struct {
	// StaleAfter removes an endpoint whose last heartbeat is older than
	// this (0 disables pruning — in-process deployments deregister
	// explicitly and never miss heartbeats).
	StaleAfter time.Duration
	// Now overrides the clock for tests.
	Now func() time.Time
}

// Registry is the live route table. All methods are safe for concurrent
// use; Generation is lock-free so a balancer can poll it per dial.
type Registry struct {
	cfg Config

	// gen numbers the routable-set version across all services: any
	// change to any service's active set bumps it, and consumers
	// (cluster.Balancer) refresh their backend lists when it moves.
	gen atomic.Uint64
	// pendingN counts pending endpoints so EpochBoundary — which runs on
	// every shuffle flush — is one atomic load in the common case.
	pendingN atomic.Int64

	mu       sync.Mutex
	services map[string]*svcEndpoints

	registrations   uint64
	deregistrations uint64
	admissions      uint64
	drains          uint64
	prunes          uint64
}

// svcEndpoints is one service's endpoint set; order preserves
// registration order so Routable and victim selection are deterministic.
type svcEndpoints struct {
	order []string
	eps   map[string]*endpointState
}

type endpointState struct {
	state        State
	lastBeat     time.Time
	registeredAt time.Time
}

// NewRegistry builds a registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{cfg: cfg, services: make(map[string]*svcEndpoints)}
}

// Register adds an endpoint. It enters PENDING — routable only after the
// next shuffle-epoch boundary (EpochBoundary) — unless the service has
// no active endpoint at all, in which case it is admitted immediately:
// with nothing routable there is no traffic flowing through the service,
// hence no in-flight epoch an admission could dilute. Re-registering a
// known endpoint refreshes its heartbeat and keeps its state (a draining
// endpoint cannot re-admit itself; deregistration is its only exit).
// The admitted state is returned.
func (r *Registry) Register(service, addr string) State {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := r.services[service]
	if svc == nil {
		svc = &svcEndpoints{eps: make(map[string]*endpointState)}
		r.services[service] = svc
	}
	if ep := svc.eps[addr]; ep != nil {
		ep.lastBeat = now
		return ep.state
	}
	st := StatePending
	if !svc.hasActive() {
		st = StateActive
	}
	svc.eps[addr] = &endpointState{state: st, lastBeat: now, registeredAt: now}
	svc.order = append(svc.order, addr)
	r.registrations++
	if st == StatePending {
		r.pendingN.Add(1)
	} else {
		r.gen.Add(1)
	}
	return st
}

func (s *svcEndpoints) hasActive() bool {
	for _, ep := range s.eps {
		if ep.state == StateActive {
			return true
		}
	}
	return false
}

// Heartbeat refreshes an endpoint's liveness. False means the endpoint
// is unknown (pruned or never registered) and the agent should
// re-register.
func (r *Registry) Heartbeat(service, addr string) bool {
	now := r.cfg.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := r.services[service]
	if svc == nil {
		return false
	}
	ep := svc.eps[addr]
	if ep == nil {
		return false
	}
	ep.lastBeat = now
	return true
}

// BeginDrain moves an endpoint out of the routable set while keeping it
// registered: the balancer stops dialing it on its next refresh, but the
// instance keeps serving in-flight traffic and flushing its buffered
// shuffle epochs. False means the endpoint is unknown.
func (r *Registry) BeginDrain(service, addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := r.services[service]
	if svc == nil {
		return false
	}
	ep := svc.eps[addr]
	if ep == nil {
		return false
	}
	switch ep.state {
	case StateActive:
		ep.state = StateDraining
		r.drains++
		r.gen.Add(1)
	case StatePending:
		// Never routed; draining it is just a deferred deregister.
		ep.state = StateDraining
		r.drains++
		r.pendingN.Add(-1)
	}
	return true
}

// Deregister removes an endpoint. False means it was unknown.
func (r *Registry) Deregister(service, addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.removeLocked(service, addr, false)
}

// removeLocked drops one endpoint, bumping the generation when the
// routable set changed. asPrune selects the prune counter.
func (r *Registry) removeLocked(service, addr string, asPrune bool) bool {
	svc := r.services[service]
	if svc == nil {
		return false
	}
	ep := svc.eps[addr]
	if ep == nil {
		return false
	}
	delete(svc.eps, addr)
	for i, a := range svc.order {
		if a == addr {
			svc.order = append(svc.order[:i], svc.order[i+1:]...)
			break
		}
	}
	switch ep.state {
	case StatePending:
		r.pendingN.Add(-1)
	case StateActive:
		r.gen.Add(1)
	}
	if asPrune {
		r.prunes++
	} else {
		r.deregistrations++
	}
	return true
}

// EpochBoundary admits every pending endpoint, across all services, and
// returns how many were admitted. It is wired to the proxy layers'
// shuffle-flush observers: a flush is exactly the moment no epoch is in
// flight on the flushing instance, so newly admitted endpoints start
// receiving requests on a fresh epoch. The no-pending fast path is one
// atomic load, cheap enough for the flush path.
func (r *Registry) EpochBoundary() int {
	if r.pendingN.Load() == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked(time.Time{})
}

// AdmitIdle admits pending endpoints that have waited longer than
// olderThan. The reconciler calls it each tick with the shuffle flush
// timeout: if a full flush interval passed with no epoch boundary
// firing, the fleet is idle — every shuffler's buffer has flushed or is
// older than the pending registration — so admission cannot dilute an
// epoch the endpoint could have siphoned from. It also keeps a fleet
// with zero traffic (hence zero epochs) from deadlocking new capacity.
func (r *Registry) AdmitIdle(olderThan time.Duration) int {
	if r.pendingN.Load() == 0 {
		return 0
	}
	cutoff := r.cfg.Now().Add(-olderThan)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitLocked(cutoff)
}

// admitLocked promotes pending endpoints registered at or before cutoff
// (zero cutoff promotes all).
func (r *Registry) admitLocked(cutoff time.Time) int {
	admitted := 0
	for _, svc := range r.services {
		for _, ep := range svc.eps {
			if ep.state != StatePending {
				continue
			}
			if !cutoff.IsZero() && ep.registeredAt.After(cutoff) {
				continue
			}
			ep.state = StateActive
			admitted++
		}
	}
	if admitted > 0 {
		r.admissions += uint64(admitted)
		r.pendingN.Add(-int64(admitted))
		r.gen.Add(1)
	}
	return admitted
}

// Routable returns the service's active endpoints in registration order,
// pruning stale ones first. Pending and draining endpoints never appear.
func (r *Registry) Routable(service string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked()
	svc := r.services[service]
	if svc == nil {
		return nil
	}
	out := make([]string, 0, len(svc.order))
	for _, addr := range svc.order {
		if svc.eps[addr].state == StateActive {
			out = append(out, addr)
		}
	}
	return out
}

// Generation returns the routable-set version; it moves on every change
// to any service's active set (admission, drain, deregister, prune).
// Lock-free, so a balancer can compare it on every dial.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Prune removes endpoints whose heartbeat went stale and returns how
// many were removed. Routable prunes implicitly; callers with no dial
// traffic (the ops registry host) tick it explicitly.
func (r *Registry) Prune() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pruneLocked()
}

func (r *Registry) pruneLocked() int {
	if r.cfg.StaleAfter <= 0 {
		return 0
	}
	cutoff := r.cfg.Now().Add(-r.cfg.StaleAfter)
	removed := 0
	for name, svc := range r.services {
		var stale []string
		for addr, ep := range svc.eps {
			if ep.lastBeat.Before(cutoff) {
				stale = append(stale, addr)
			}
		}
		for _, addr := range stale {
			if r.removeLocked(name, addr, true) {
				removed++
			}
		}
	}
	return removed
}

// Membership returns every registered endpoint with its state, sorted by
// service then address — the fleet view the /fleet report and `pprox-ops
// top` render.
func (r *Registry) Membership() []Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Endpoint
	for name, svc := range r.services {
		for addr, ep := range svc.eps {
			out = append(out, Endpoint{Service: name, Addr: addr, State: ep.state.String()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Count returns the number of endpoints of a service in a given state.
func (r *Registry) Count(service string, state State) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	svc := r.services[service]
	if svc == nil {
		return 0
	}
	n := 0
	for _, ep := range svc.eps {
		if ep.state == state {
			n++
		}
	}
	return n
}

// RegistryStats are the registry's lifetime counters.
type RegistryStats struct {
	Registrations   uint64
	Deregistrations uint64
	Admissions      uint64
	Drains          uint64
	Prunes          uint64
}

// Stats returns the lifetime counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Registrations:   r.registrations,
		Deregistrations: r.deregistrations,
		Admissions:      r.admissions,
		Drains:          r.drains,
		Prunes:          r.prunes,
	}
}

// RegisterMetrics exposes the registry's instruments: lifecycle counters,
// the generation gauge, and per-service endpoint-state gauges for the
// given services (default ua, ia, lrs).
func (r *Registry) RegisterMetrics(reg *metrics.Registry, services ...string) {
	if len(services) == 0 {
		services = []string{"ua", "ia", "lrs"}
	}
	counter := func(name, help string, read func(RegistryStats) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(read(r.Stats())) })
	}
	counter("pprox_fleet_registrations_total",
		"Endpoints registered with the fleet registry.",
		func(s RegistryStats) uint64 { return s.Registrations })
	counter("pprox_fleet_deregistrations_total",
		"Endpoints deregistered from the fleet registry.",
		func(s RegistryStats) uint64 { return s.Deregistrations })
	counter("pprox_fleet_admissions_total",
		"Pending endpoints admitted at shuffle-epoch boundaries.",
		func(s RegistryStats) uint64 { return s.Admissions })
	counter("pprox_fleet_drains_total",
		"Endpoints moved into drain mode.",
		func(s RegistryStats) uint64 { return s.Drains })
	counter("pprox_fleet_prunes_total",
		"Endpoints removed after missing heartbeats.",
		func(s RegistryStats) uint64 { return s.Prunes })
	reg.Gauge("pprox_fleet_generation",
		"Routable-set version; consumers refresh their backend lists when it moves.",
		func() float64 { return float64(r.Generation()) })
	ep := reg.GaugeVec("pprox_fleet_endpoints",
		"Registered endpoints by service and lifecycle state.", "service", "state")
	for _, svc := range services {
		for _, st := range []State{StatePending, StateActive, StateDraining} {
			svc, st := svc, st
			ep.With(func() float64 { return float64(r.Count(svc, st)) }, svc, st.String())
		}
	}
}
