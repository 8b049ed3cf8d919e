package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/node"
	"pprox/internal/proxy"
)

// stalledWriter blocks every write until released, as a stalled disk
// would, and keeps what it is given.
type stalledWriter struct {
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestTraceLogNeverHoldsTheFlush: the -trace-log writer is handed each
// epoch record on the layer's flush path, under the shuffler lock. With a
// writer that blocks until released, every epoch is still released at
// once — more of them than the queue holds, the rest dropped and counted
// — and closing the log as soon as the writer is released writes every
// queued record, in epoch order. (That the closing batch-0 record lands
// is make tcp-smoke's check.)
func TestTraceLogNeverHoldsTheFlush(t *testing.T) {
	w := &stalledWriter{release: make(chan struct{})}
	tl := newTraceLog(w)
	p, err := node.NewProxy(
		node.Config{Role: proxy.RoleUA, PassThrough: true, Next: "http://127.0.0.1:1", ShuffleSize: 2},
		node.Env{
			Dialer:    &net.Dialer{Timeout: time.Second},
			Registry:  metrics.NewRegistry(),
			TraceSink: tl.record,
		})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = traceQueue + 50
	released := make(chan error, 1)
	go func() {
		for i := 0; i < epochs; i++ {
			if _, err := p.Layer.Shuffler().ReleaseBatch(2); err != nil {
				released <- err
				return
			}
		}
		released <- nil
	}()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("epoch releases wait on the stalled trace writer")
	}

	close(w.release)
	p.Close()
	dropped := tl.close()

	var recs []proxy.EpochRecord
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		var r proxy.EpochRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	if len(recs)+int(dropped) != epochs {
		t.Fatalf("%d records written and %d dropped, want %d in all", len(recs), dropped, epochs)
	}
	if len(recs) < traceQueue || dropped == 0 {
		t.Fatalf("%d records written, %d dropped: the queue of %d did not fill", len(recs), dropped, traceQueue)
	}
	for i, r := range recs {
		if r.Batch != 2 || i > 0 && r.Epoch <= recs[i-1].Epoch {
			t.Fatalf("record %d is epoch %d of batch %d after epoch %d", i, r.Epoch, r.Batch, recs[max(i-1, 0)].Epoch)
		}
	}
}
