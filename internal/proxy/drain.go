package proxy

import (
	"context"
	"fmt"
	"time"
)

// Drain is the privacy-safe way to retire a layer instance (DESIGN.md
// §4d). The rule it enforces: a draining instance's buffered shuffle
// epochs leave exactly as they would have on a healthy instance — full
// batches, or the one timer-bound flush the shuffler would have run
// anyway — and teardown happens only once nothing is buffered. The
// shuffler itself is never touched: there is no forced flush, because a
// forced flush IS the split epoch the 1/S argument forbids.
//
// The protocol has two phases:
//
//  1. BeginDrain (soft): the caller has already stopped routing new
//     connections here (a balancer re-registered without this instance,
//     or a process taken out of its load balancer before its SIGTERM).
//     Responses carry Connection: close so pooled keep-alive connections
//     (transport.HTTPClient keeps up to 1024 per host) and a UA's pooled
//     frame links to a draining IA (the hopwire server closes a link
//     after such a reply) evict themselves instead of carrying new
//     requests back. In-flight and
//     still-arriving requests are served normally and keep filling the
//     shuffler, which flushes on size or timer as ever.
//  2. RefuseNew (hard): after the caller's grace deadline, remaining
//     arrivals get 503 so the sender's resilience ladder retries them on
//     a live instance.
//
// AwaitDrained completes when no request is in flight and the shuffler
// is empty; only then may the caller close its listeners and the layer.
type DrainReport struct {
	// Draining reports whether BeginDrain has run.
	Draining bool `json:"draining"`
	// PendingAtDrain is the shuffler depth when the drain began.
	PendingAtDrain int `json:"pending_at_drain"`
	// InFlight is the current number of app requests being served.
	InFlight int64 `json:"in_flight"`
	// Pending is the current shuffler depth.
	Pending int `json:"pending"`
	// Sheds counts messages shed (table full) since the drain began —
	// each one was pushed out of its anonymity set by the drain.
	Sheds uint64 `json:"sheds"`
	// Clean is the drain invariant: no message shed since the drain
	// began and the shuffler was never closed with messages buffered.
	// A clean drain released every admitted message inside an epoch the
	// shuffler itself chose — no split, no early flush.
	Clean bool `json:"clean"`
}

// BeginDrain enters the soft drain phase. Idempotent.
func (l *Layer) BeginDrain() {
	if l.draining.Swap(true) {
		return
	}
	_, sheds := l.shuffler.Stats()
	l.drainShedsBase.Store(sheds)
	l.drainPendingAt.Store(int64(l.shuffler.Pending()))
}

// RefuseNew enters the hard drain phase: new app requests get 503 while
// health and in-flight work continue. Implies BeginDrain.
func (l *Layer) RefuseNew() {
	l.BeginDrain()
	l.refusing.Store(true)
}

// Draining reports whether the layer is in (soft or hard) drain.
func (l *Layer) Draining() bool { return l.draining.Load() }

// InFlight returns the number of app requests currently being served.
func (l *Layer) InFlight() int64 { return l.inflight.Load() }

// AwaitDrained blocks until no app request is in flight and the shuffler
// is empty, or the context expires. The shuffler empties on its own: the
// last buffered messages leave with the size-triggered flush fed by
// still-draining traffic, or with the timer flush — at most one
// ShuffleTimeout after the last arrival.
func (l *Layer) AwaitDrained(ctx context.Context) error {
	if !l.draining.Load() {
		return fmt.Errorf("proxy: AwaitDrained without BeginDrain")
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if l.inflight.Load() == 0 && l.shuffler.Pending() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("proxy: drain incomplete: %d in flight, %d buffered: %w",
				l.inflight.Load(), l.shuffler.Pending(), ctx.Err())
		case <-tick.C:
		}
	}
}

// DrainReport returns the drain state and its privacy invariant. Valid
// after Close as well, and only then final: a message Close found still
// buffered turns it dirty.
func (l *Layer) DrainReport() DrainReport {
	rep := DrainReport{
		Draining:       l.draining.Load(),
		PendingAtDrain: int(l.drainPendingAt.Load()),
		InFlight:       l.inflight.Load(),
		Pending:        l.shuffler.Pending(),
	}
	if rep.Draining {
		_, sheds := l.shuffler.Stats()
		rep.Sheds = sheds - l.drainShedsBase.Load()
		rep.Clean = rep.Sheds == 0 && !l.drainStranded.Load()
	}
	return rep
}
