package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// fakeDialer succeeds or refuses per address and counts dials.
type fakeDialer struct {
	dead  map[string]bool
	dials map[string]int
}

func newFakeDialer() *fakeDialer {
	return &fakeDialer{dead: map[string]bool{}, dials: map[string]int{}}
}

func (f *fakeDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	f.dials[addr]++
	if f.dead[addr] {
		return nil, errors.New("connection refused")
	}
	c1, c2 := net.Pipe()
	go c2.Close()
	return c1, nil
}

func ejectBackend(t *testing.T, b *Balancer, service, addr string, threshold int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < threshold*4; i++ {
		if conn, err := b.DialContext(ctx, "mem", service); err == nil {
			conn.Close()
		}
	}
	for _, ej := range b.Ejected(service) {
		if ej == addr {
			return
		}
	}
	t.Fatalf("backend %s never ejected; ejected = %v", addr, b.Ejected(service))
}

// TestRegisterPreservesBreakerStateAcrossReRegistration is the regression
// test for the wholesale-replacement bug: re-registering a service used to
// rebuild every breaker, silently re-admitting ejected backends.
func TestRegisterPreservesBreakerStateAcrossReRegistration(t *testing.T) {
	under := newFakeDialer()
	under.dead["b1"] = true
	b := NewBalancer(under)
	b.SetBreakerPolicy(2, time.Hour) // cooldown long enough to never re-trial
	b.Register("svc", "b1", "b2")

	ejectBackend(t, b, "svc", "b1", 2)
	deadDials := under.dials["b1"]

	// Re-register with one backend added: b1's ejection must survive.
	b.Register("svc", "b1", "b2", "b3")
	if ej := b.Ejected("svc"); len(ej) != 1 || ej[0] != "b1" {
		t.Fatalf("ejection state lost on re-registration: ejected = %v", ej)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		conn, err := b.DialContext(ctx, "mem", "svc")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	if under.dials["b1"] != deadDials {
		t.Fatalf("ejected backend dialed %d more times after re-registration",
			under.dials["b1"]-deadDials)
	}
	if under.dials["b3"] == 0 {
		t.Fatalf("new backend b3 never dialed")
	}
}

func TestRegisterDropsRemovedBackends(t *testing.T) {
	under := newFakeDialer()
	b := NewBalancer(under)
	b.Register("svc", "b1", "b2")
	b.Register("svc", "b2")
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		conn, err := b.DialContext(ctx, "mem", "svc")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	if under.dials["b1"] != 0 {
		t.Fatalf("removed backend b1 still dialed %d times", under.dials["b1"])
	}
}
