package audit

import "time"

// CacheState is the auditor's sampled view of one IA recommendation
// cache: its flush generation (advances exactly once per wholesale
// flush), entry count, and how many resident entries are past their TTL.
// *reccache.Cache implements it.
type CacheState interface {
	Generation() uint64
	Len() int
	ExpiredResident() int
}

// cacheWatch holds a cache accountable across enclave breaches. On
// ObserveBreach it snapshots the cache's flush generation; while the
// cache still held entries at breach time and its generation has not
// advanced since, the breach-era entries may still be getting served —
// a violation until Flush runs. Its methods run under the engine lock.
type cacheWatch struct {
	c         CacheState
	pending   bool
	breachGen uint64
}

// noteBreach arms the watch: a flush (generation bump) is now owed. An
// outstanding (older) debt stands, and a cache that was already empty
// owes nothing.
func (w *cacheWatch) noteBreach() {
	if w.pending || w.c.Len() == 0 {
		return
	}
	w.pending = true
	w.breachGen = w.c.Generation()
}

// stale reports whether the cache still owes a post-breach flush. It
// runs as a check under the engine lock, so it must not call back into
// the auditor.
func (w *cacheWatch) stale() bool {
	if w.pending && w.c.Generation() > w.breachGen {
		w.pending = false
	}
	return w.pending
}

// RegisterCacheCheck puts a recommendation cache under audit, named for
// the report (e.g. the node address). Two signals join the SLO:
//
//   - a warning while expired entries sit resident past the epoch sweep
//     (cache freshness is part of the invalidation contract), and
//   - a violation when an enclave breach is observed while the cache
//     holds entries and no wholesale flush follows — whichever layer
//     leaked, cached lists derive from the pre-breach key world.
//
// Call during deployment wiring, like AddCheck.
func (a *Auditor) RegisterCacheCheck(name string, c CacheState) {
	w := &cacheWatch{c: c}
	a.Update(func(time.Time) { a.cacheWatches = append(a.cacheWatches, w) })
	a.AddCheck("expired reccache entries resident on "+name, func() bool { return c.ExpiredResident() > 0 })
	a.AddViolationCheck("reccache not flushed after breach on "+name, w.stale)
}
