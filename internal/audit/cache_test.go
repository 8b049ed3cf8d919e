package audit

import (
	"testing"

	"pprox/internal/slo"
)

// fakeCache is a controllable CacheState.
type fakeCache struct {
	gen     uint64
	entries int
	expired int
}

func (f *fakeCache) Generation() uint64   { return f.gen }
func (f *fakeCache) Len() int             { return f.entries }
func (f *fakeCache) ExpiredResident() int { return f.expired }

func (f *fakeCache) flush() {
	f.gen++
	f.entries = 0
	f.expired = 0
}

func TestCacheCheckExpiredEntriesWarn(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	fc := &fakeCache{entries: 3}
	a.RegisterCacheCheck("ia-0", fc)

	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v with fresh cache, want ok", got)
	}
	fc.expired = 2
	if got := a.State(); got != slo.StateWarn {
		t.Fatalf("state = %v with expired entries resident, want warn", got)
	}
	fc.expired = 0 // epoch sweep ran
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after sweep, want ok", got)
	}
}

func TestCacheCheckBreachRequiresFlush(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	fc := &fakeCache{entries: 5}
	a.RegisterCacheCheck("ia-0", fc)

	// Breach: violated, as always, until the rotation completes…
	a.ObserveBreach("UA")
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v after breach, want violated", got)
	}
	// …but a rotation WITHOUT a cache flush must NOT clear the
	// violation: the cache still serves lists from the pre-breach key
	// world.
	a.ObserveRotation("UA")
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v after rotation without cache flush, want violated", got)
	}
	// Only the wholesale flush (generation bump) settles the debt.
	fc.flush()
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after flush, want ok", got)
	}
}

func TestCacheCheckEmptyCacheOwesNothing(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	fc := &fakeCache{entries: 0}
	a.RegisterCacheCheck("ia-0", fc)

	a.ObserveBreach("IA")
	a.ObserveRotation("IA")
	// The cache was empty at breach time: no flush owed.
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v for empty cache across breach, want ok", got)
	}
}

func TestCacheCheckSecondBreachKeepsOlderDebt(t *testing.T) {
	c := newClock()
	a := newTestAuditor(c)
	fc := &fakeCache{entries: 2}
	a.RegisterCacheCheck("ia-0", fc)

	a.ObserveBreach("UA")
	firstGen := fc.gen
	// A second breach before the flush must not reset the debt to a
	// newer generation — the older one still stands.
	fc.entries = 4
	a.ObserveBreach("IA")
	a.ObserveRotation("UA")
	a.ObserveRotation("IA")
	if got := a.State(); got != StateViolated {
		t.Fatalf("state = %v with flush still owed, want violated", got)
	}
	fc.gen = firstGen + 1 // one flush covers both breaches
	fc.entries = 0
	if got := a.State(); got != StateOK {
		t.Fatalf("state = %v after flush, want ok", got)
	}
}
