package enclave

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Crossing is one enclave crossing that stays open while messages arrive:
// the switchless-call model, in which worker threads stay resident in the
// enclave and are fed messages through a shared buffer instead of paying
// one world switch each. The proxy opens one per message kind per shuffle
// epoch, submits each request as it arrives, and closes the crossing when
// the epoch is released; CallBatch is the same thing with every message
// in hand at the start.
//
// Accounting: the crossing enters the enclave with the first message it
// admits — that is when it counts toward EcallCount and pays the
// transition cost, once — and every admitted message counts toward
// MessageCount. A crossing that never admitted a message never happened.
// Each submitted buffer is charged against the EPC until the crossing
// ends (the shared buffer holds every input it was handed). What the
// observers are told when it ends is the crossing's *busy* time, the sum
// of its handlers' run times: an open crossing spends most of its life
// waiting for the next arrival, and that wait is the shuffler's, not the
// enclave's.
//
// Handlers run with the secret set installed at the moment each message
// is picked up, not the one installed when the crossing opened: resident
// workers read the enclave's current key state, so a re-provisioning takes
// effect on the very next message.
type Crossing struct {
	e    *Enclave
	name string
	h    Handler

	mu       sync.Mutex
	closed   bool
	inflight int           // admitted messages whose handler has not returned
	n        int           // messages admitted
	pages    int           // EPC pages held for the admitted buffers
	busy     time.Duration // Σ handler time
}

// OpenBatch opens a crossing into the named entry point. It fails, like
// Ecall, on an unknown entry point or an unprovisioned enclave. The caller
// must Close the crossing.
func (e *Enclave) OpenBatch(name string) (*Crossing, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, err := e.handlerLocked(name)
	if err != nil {
		return nil, err
	}
	return &Crossing{e: e, name: name, h: h}, nil
}

// admit takes n messages totalling size bytes into the crossing: charges
// their buffer to the EPC, counts them, and — for the first admission —
// enters the enclave. It fails with ErrCrossingClosed after Close and with
// ErrEPCExhausted when the buffer does not fit, admitting nothing.
func (c *Crossing) admit(size, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCrossingClosed
	}
	pages := pagesFor(size)
	first := c.n == 0
	e := c.e
	e.mu.Lock()
	if err := e.allocLocked(pages); err != nil {
		e.mu.Unlock()
		return fmt.Errorf("batch crossing buffer: %w", err)
	}
	if first {
		e.ecalls++
	}
	e.msgs += uint64(n)
	e.mu.Unlock()
	c.pages += pages
	c.n += n
	c.inflight += n
	if first {
		// Paid under the crossing's lock: no message is picked up before
		// the enclave has been entered.
		e.crossTransition()
	}
	return nil
}

// run processes one admitted message on the calling goroutine, which
// stands in for a resident worker picking it up.
func (c *Crossing) run(in []byte) ([]byte, error) {
	c.e.mu.Lock()
	secrets := c.e.secrets
	c.e.mu.Unlock()
	start := time.Now()
	out, err := c.h(secrets, c.e.kv, in)
	d := time.Since(start)

	c.mu.Lock()
	c.busy += d
	c.inflight--
	last := c.closed && c.inflight == 0
	c.mu.Unlock()
	if last {
		c.finish()
	}
	return out, err
}

// Submit hands one message to the open crossing and returns when its
// handler has: out/herr are the handler's own outcome, err reports that
// the crossing could not take the message — ErrCrossingClosed, or
// ErrEPCExhausted when its buffer does not fit (callers fall back to a
// per-message Ecall) — in which case no handler ran. Safe for concurrent
// use; the caller bounds how many messages are in the enclave at once.
func (c *Crossing) Submit(in []byte) (out []byte, herr, err error) {
	if err := c.admit(len(in), 1); err != nil {
		return nil, nil, err
	}
	out, herr = c.run(in)
	return out, herr, nil
}

// Close ends the crossing: later Submits fail with ErrCrossingClosed, and
// once the messages already inside have been processed — Close does not
// wait for them — the EPC charge is returned and the observers are told.
// Closing twice is a no-op.
func (c *Crossing) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	idle := c.inflight == 0
	c.mu.Unlock()
	if idle {
		c.finish()
	}
}

// finish runs exactly once, after Close and the last handler's return.
func (c *Crossing) finish() {
	if c.n == 0 {
		return // never entered the enclave
	}
	c.e.free(c.pages)
	if obs := c.e.observer.Load(); obs != nil {
		(*obs)(c.name, c.busy, nil)
	}
	if bobs := c.e.batchObserver.Load(); bobs != nil {
		(*bobs)(c.name, c.n, c.busy)
	}
}

// CallBatch transfers control into the enclave ONCE for a whole epoch of
// messages already in hand: one Crossing opened, fed every input, and
// closed. All inputs are resident at the boundary at once, so they are
// admitted together and an epoch the EPC cannot hold fails up front with
// ErrEPCExhausted (callers fall back to per-message ECALLs).
//
// outs[i]/errs[i] carry each message's individual outcome; err reports
// crossing-level failures only (unknown ECALL, not provisioned, EPC), in
// which case no handler ran and nothing was counted.
func (e *Enclave) CallBatch(name string, ins [][]byte) (outs [][]byte, errs []error, err error) {
	if len(ins) == 0 {
		return nil, nil, nil
	}
	c, err := e.OpenBatch(name)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	total := 0
	for _, in := range ins {
		total += len(in)
	}
	if err := c.admit(total, len(ins)); err != nil {
		return nil, nil, err
	}

	// The resident workers drain the batch in parallel. Handlers already
	// run concurrently in per-message operation, so parallel use is part
	// of their contract.
	outs = make([][]byte, len(ins))
	errs = make([]error, len(ins))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ins) {
		workers = len(ins)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ins) {
					return
				}
				outs[i], errs[i] = c.run(ins[i])
			}
		}()
	}
	wg.Wait()
	return outs, errs, nil
}
