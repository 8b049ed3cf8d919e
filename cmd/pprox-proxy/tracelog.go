package main

import (
	"encoding/json"
	"io"
	"sync/atomic"

	"pprox/internal/proxy"
)

// traceQueue is how many epoch records the -trace-log writer may fall
// behind by before records are dropped: at ten epochs a second that is
// over a minute of a stalled disk, and a record is a few small maps.
const traceQueue = 1024

// traceLog writes the instance's epoch records as JSON lines, one per
// record, from a goroutine of its own. The layer hands a record over on
// its flush path, under the shuffler lock, so the hand-over never waits
// on the disk: when the writer is traceQueue records behind, the record
// is dropped and counted. A failed write loses one line of telemetry,
// never a request.
type traceLog struct {
	queue   chan proxy.EpochRecord
	done    chan struct{}
	dropped atomic.Uint64
}

// newTraceLog starts the writer on w.
func newTraceLog(w io.Writer) *traceLog {
	tl := &traceLog{queue: make(chan proxy.EpochRecord, traceQueue), done: make(chan struct{})}
	go func() {
		defer close(tl.done)
		enc := json.NewEncoder(w)
		for r := range tl.queue {
			_ = enc.Encode(r)
		}
	}()
	return tl
}

// record queues one record for the writer, or drops it when the queue is
// full; it never blocks.
func (tl *traceLog) record(r proxy.EpochRecord) {
	select {
	case tl.queue <- r:
	default:
		tl.dropped.Add(1)
	}
}

// close waits until the writer has written every queued record and
// reports how many were dropped. The layer must hand over no record
// after it: close it first.
func (tl *traceLog) close() (dropped uint64) {
	close(tl.queue)
	<-tl.done
	return tl.dropped.Load()
}
