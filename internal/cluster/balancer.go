package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/resilience"
	"pprox/internal/transport"
)

// Balancer is a connection-level round-robin load balancer over the
// in-memory network, standing in for the kube-proxy service VIPs the paper
// uses ("We implement horizontal scaling of PProx proxy layers and of all
// Harness modules using Kubernetes integrated load balancing mechanisms
// (kube-proxy module)", §7.2).
//
// It is a transport.Dialer: dialing a registered service name opens a
// connection to the service's next backend in round-robin order;
// unregistered names pass through to the underlying network.
//
// With a breaker policy set, each backend carries its own circuit breaker
// in trial (half-open) mode — the dial itself is the cheapest possible
// health probe. A backend whose dials keep failing is ejected from the
// rotation; after the cooldown one dial per cooldown is admitted as a
// trial, and a successful trial re-admits the backend.
//
// Re-registering a service replaces its backend set; a backend that
// survives the update keeps its breaker — ejection state is the
// balancer's accumulated knowledge about a backend's health, and a
// membership change elsewhere in the set is no evidence about this
// backend.
type Balancer struct {
	under transport.Dialer

	mu       sync.Mutex
	services map[string]*service
	// breaker policy applied to services registered afterwards; zero
	// threshold disables ejection.
	threshold int
	cooldown  time.Duration
}

// backend pairs an address with its breaker so updates can preserve
// breaker state per address rather than per slice position.
type backend struct {
	addr string
	br   *resilience.Breaker
}

type service struct {
	// backends is rebuilt wholesale on every update, so a slice value
	// read under the lock stays a consistent immutable snapshot after
	// the lock is released.
	backends []*backend
	next     atomic.Uint64
}

// NewBalancer wraps a dialer (usually the memnet Network).
func NewBalancer(under transport.Dialer) *Balancer {
	return &Balancer{under: under, services: make(map[string]*service)}
}

// SetBreakerPolicy arms per-backend circuit breakers on services
// registered from now on. threshold ≤ 0 disables ejection.
func (b *Balancer) SetBreakerPolicy(threshold int, cooldown time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.threshold = threshold
	b.cooldown = cooldown
}

// Register maps a service name to its backend addresses. Re-registering
// a name updates the backend set in place: surviving backends keep their
// breaker (and thus their ejection state), new backends get a fresh one.
func (b *Balancer) Register(name string, backends ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[name]
	if svc == nil {
		svc = &service{}
		b.services[name] = svc
	}
	prev := make(map[string]*backend, len(svc.backends))
	for _, bk := range svc.backends {
		prev[bk.addr] = bk
	}
	next := make([]*backend, 0, len(backends))
	for _, addr := range backends {
		if bk := prev[addr]; bk != nil {
			next = append(next, bk)
			continue
		}
		// Trial mode (no probe function): the next dial after the
		// cooldown is the health probe.
		next = append(next, &backend{addr: addr, br: resilience.NewBreaker(b.threshold, b.cooldown, nil)})
	}
	svc.backends = next
}

// snapshot returns the service and its current backend slice, nil for an
// unregistered name. The returned slice is immutable.
func (b *Balancer) snapshot(name string) (*service, []*backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	svc := b.services[name]
	if svc == nil {
		return nil, nil
	}
	return svc, svc.backends
}

// DialContext implements transport.Dialer with round-robin backend
// selection per connection. A backend that refuses the connection is
// skipped and the next one tried (kube-proxy's failure handling for dead
// endpoints); ejected backends are skipped without dialing; the last error
// surfaces only when every backend fails.
func (b *Balancer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	name := addr
	if host, _, err := net.SplitHostPort(addr); err == nil {
		name = host
	}
	svc, backends := b.snapshot(name)
	if svc == nil {
		return b.under.DialContext(ctx, network, addr)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: service %q has no backends", name)
	}
	var lastErr error
	ejected := 0
	for attempt := 0; attempt < len(backends); attempt++ {
		i := int(svc.next.Add(1)-1) % len(backends)
		bk := backends[i]
		if !bk.br.Allow() {
			ejected++
			continue
		}
		conn, err := b.under.DialContext(ctx, network, bk.addr)
		bk.br.Report(err == nil)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil && ejected > 0 {
		return nil, fmt.Errorf("cluster: service %q: all backends ejected", name)
	}
	return nil, fmt.Errorf("cluster: service %q: all backends failed: %w", name, lastErr)
}

// Ejected returns the currently ejected backends of a service, for tests
// and operational visibility.
func (b *Balancer) Ejected(name string) []string {
	_, backends := b.snapshot(name)
	var out []string
	for _, bk := range backends {
		if bk.br.State() == resilience.StateOpen {
			out = append(out, bk.addr)
		}
	}
	return out
}

// stats sums breaker counters across every backend of every service.
func (b *Balancer) stats() (ejections, readmissions uint64, ejectedNow int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, svc := range b.services {
		for _, bk := range svc.backends {
			opens, readmits := bk.br.Stats()
			ejections += opens
			readmissions += readmits
			if bk.br.State() == resilience.StateOpen {
				ejectedNow++
			}
		}
	}
	return ejections, readmissions, ejectedNow
}

// RegisterMetrics exposes the balancer's ejection counters:
// pprox_balancer_ejections_total, pprox_balancer_readmissions_total, and
// the pprox_balancer_ejected_backends gauge.
func (b *Balancer) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("pprox_balancer_ejections_total",
		"Backends ejected from rotation after repeated dial failures.", func() float64 {
			ejections, _, _ := b.stats()
			return float64(ejections)
		})
	r.CounterFunc("pprox_balancer_readmissions_total",
		"Ejected backends re-admitted after a successful trial dial.", func() float64 {
			_, readmissions, _ := b.stats()
			return float64(readmissions)
		})
	r.Gauge("pprox_balancer_ejected_backends",
		"Backends currently out of rotation.", func() float64 {
			_, _, ejectedNow := b.stats()
			return float64(ejectedNow)
		})
}

var _ transport.Dialer = (*Balancer)(nil)
