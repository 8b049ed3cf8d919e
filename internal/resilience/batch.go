package resilience

import (
	"context"
	"sync/atomic"
)

// Semaphore bounds concurrent fan-out toward a hop — the IA→LRS miss
// fan-out in particular, which would otherwise spawn one goroutine per
// message of every demultiplexed epoch. A nil *Semaphore (NewSemaphore
// with n ≤ 0) is valid everywhere and means unbounded.
type Semaphore struct {
	slots    chan struct{}
	inflight atomic.Int64
}

// NewSemaphore creates a semaphore admitting at most n holders; n ≤ 0
// returns nil, the unbounded semaphore.
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		return nil
	}
	return &Semaphore{slots: make(chan struct{}, n)}
}

// Acquire takes a slot, waiting until one frees up or the context ends
// (returning its error). On a nil semaphore it only checks the context.
func (s *Semaphore) Acquire(ctx context.Context) error {
	if s == nil {
		return ctx.Err()
	}
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by a successful Acquire.
func (s *Semaphore) Release() {
	if s == nil {
		return
	}
	s.inflight.Add(-1)
	<-s.slots
}

// InFlight returns the current number of holders (the
// pprox_lrs_inflight gauge).
func (s *Semaphore) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inflight.Load()
}

// Cap returns the semaphore's capacity, 0 meaning unbounded.
func (s *Semaphore) Cap() int {
	if s == nil {
		return 0
	}
	return cap(s.slots)
}

// RunBatch drives one batched forward down the degradation ladder. The
// callbacks carry all transport and privacy knowledge; this driver only
// decides what is tried, when, and at which granularity:
//
//  1. Whole envelope: send(all ids), retried up to p.MaxAttempts with
//     jittered backoff. Before each retry, prep(ids) re-establishes the
//     attempt's privacy (the UA link-rewraps the sub-batch as a unit).
//  2. Split: after whole-envelope exhaustion the ids split into halves;
//     each half is prepped and sent once.
//  3. Single: ids of a failed half degrade to single(id), which must
//     terminally resolve its message (it owns delivery, including
//     failure delivery). A one-message batch skips the split rung.
//
// send must deliver per-message results itself on success and return an
// error only for envelope-level failure (nothing delivered). Every id is
// resolved exactly once unless RunBatch returns an error — only possible
// when ctx ends or prep fails on the whole envelope mid-ladder — in
// which case the caller must fail the unresolved ids itself.
//
// The driver keeps no counts: a caller that meters the ladder counts in
// its own send and single, which run before their answers are delivered,
// so a count is never behind the replies it explains.
func RunBatch(ctx context.Context, p Policy, n int,
	send func(ids []int) error,
	prep func(ids []int) error,
	single func(id int)) error {

	if n <= 0 {
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}

	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := Sleep(ctx, p.Backoff(attempt)); err != nil {
				return err
			}
			if prep != nil {
				if err := prep(ids); err != nil {
					return err
				}
			}
		}
		if send(ids) == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	if n == 1 {
		// Splitting a singleton is meaningless; degrade directly.
		single(ids[0])
		return nil
	}
	for _, half := range [][]int{ids[:n/2], ids[n/2:]} {
		ok := false
		if prep == nil || prep(half) == nil {
			ok = send(half) == nil
		}
		if err := ctx.Err(); err != nil && !ok {
			return err
		}
		if !ok {
			for _, id := range half {
				single(id)
			}
		}
	}
	return nil
}
