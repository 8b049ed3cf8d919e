package proxy

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/resilience"
)

// This file is the request pipeline (DESIGN.md §4f), the only one. A
// request is decrypted and pseudonymized when it arrives at the UA, inside
// the one enclave crossing its message kind holds open for the epoch that
// is filling; its processed body joins the shuffle epoch, and a flush hands
// the whole permuted epoch to ONE goroutine that sends it as ONE batch
// frame to the IA's /batch route. The IA demultiplexes the frame,
// batch-processes it, speaks the legacy per-message API to the LRS under a
// bounded fan-out, and returns every result in one frame whose entry order
// is re-permuted by its own shuffler. With shuffling off (S ≤ 1) every
// epoch holds one request, so each leaves as a one-entry frame in arrival
// order; pass-through (m1) runs the same path with both enclave steps as
// identity.
//
// Privacy: a request's frame slot is its position in the shuffler's
// permuted release order, so a wire observer of the UA→IA link learns S
// messages leaving in permuted order and nothing about the order inside
// the epoch. Entry ids are those positions (sequential integers minted
// after the shuffle); response entries echo them.

// batchItem is one request riding a shuffle epoch: body is what the UA
// enclave made of it on arrival, ready for the IA.
type batchItem struct {
	isGet bool
	body  []byte
	ctx   context.Context
	enq   time.Time        // the shuffle_wait stage runs from here to release
	done  chan batchResult // buffered 1: delivery never blocks the pipeline
}

// batchResult resolves one batch item.
type batchResult struct {
	status int
	body   []byte
	err    error
}

// deliver resolves the item once; later deliveries are dropped, which
// makes the at-most-once contract local instead of global.
func (it *batchItem) deliver(res batchResult) {
	select {
	case it.done <- res:
	default:
	}
}

// admit is the UA request path, in the paper's order: process the request
// in the enclave now, then park the result in the shuffle epoch without
// blocking a goroutine inside the pipeline, and wait for the epoch's job
// to resolve it. A request the enclave rejects is answered at once and
// never takes a shuffle slot.
func (l *Layer) admit(ctx context.Context, body []byte, isGet bool) (int, []byte, error) {
	out, err := l.processArrival(body, isGet)
	if err != nil {
		return 0, nil, err
	}
	it := &batchItem{
		isGet: isGet,
		body:  out,
		ctx:   ctx,
		enq:   time.Now(),
		done:  make(chan batchResult, 1),
	}
	if err := l.shuffler.Enqueue(it); err != nil {
		return 0, nil, err
	}
	select {
	case res := <-it.done:
		if res.err != nil {
			return 0, nil, res.err
		}
		return res.status, res.body, nil
	case <-ctx.Done():
		// The caller departs; its slot stays in the epoch, which still
		// forwards the message (deliver lands in the buffered channel) —
		// a real proxy drains a timed-out client's socket too.
		return 0, nil, ctx.Err()
	}
}

// uaCrossings is the UA enclave crossing each message kind holds open for
// the shuffle epoch that is filling now: opened by the kind's first
// arrival, fed every later one, closed when the shuffler releases the
// epoch — so an epoch costs at most one crossing per kind, and each
// request's cryptography is done by the time its epoch leaves.
type uaCrossings struct {
	mu     sync.Mutex
	open   [2]*enclave.Crossing // 0: posts, 1: gets
	closed bool                 // Layer.Close ran: no flush will end another
}

// crossing returns the open crossing for kind k, opening one into ecall if
// the epoch has none yet.
func (l *Layer) crossing(k int, ecall string) (*enclave.Crossing, error) {
	l.cross.mu.Lock()
	defer l.cross.mu.Unlock()
	if c := l.cross.open[k]; c != nil {
		return c, nil
	}
	if l.cross.closed {
		return nil, ErrShufflerClosed
	}
	c, err := l.cfg.Enclave.OpenBatch(ecall)
	if err != nil {
		return nil, err
	}
	l.cross.open[k] = c
	return c, nil
}

// closeCrossings ends the filling epoch's crossings. It runs on the flush
// path under the shuffler lock (Crossing.Close does not wait for handlers
// still running: a message that finishes after the flush joins the next
// epoch, its crossing's accounting settles when it returns).
func (l *Layer) closeCrossings() {
	l.cross.mu.Lock()
	open := l.cross.open
	l.cross.open = [2]*enclave.Crossing{}
	l.cross.mu.Unlock()
	for _, c := range open {
		if c != nil {
			c.Close()
		}
	}
}

// processArrival runs one arriving request through its kind's open
// crossing, under the data-processing worker pool. A crossing that cannot
// take the message — most notably a buffer the EPC cannot hold — falls
// back to a per-message ECALL. In pass-through it is the identity.
func (l *Layer) processArrival(body []byte, isGet bool) ([]byte, error) {
	if l.cfg.PassThrough {
		return body, nil
	}
	k, ecall := 0, ecallUAPost
	if isGet {
		k, ecall = 1, ecallUAGet
	}
	return l.onWorker(StageEcallDecrypt, func() ([]byte, error) {
		for {
			c, err := l.crossing(k, ecall)
			if err != nil {
				return nil, err
			}
			out, herr, err := c.Submit(body)
			switch {
			case err == nil:
				return out, herr
			case errors.Is(err, enclave.ErrCrossingClosed):
				// A flush ended the crossing between lookup and submit;
				// this message belongs to the next epoch's.
				continue
			case errors.Is(err, enclave.ErrEPCExhausted):
				l.epcFallbacks.Add(1)
			}
			return l.cfg.Enclave.Ecall(ecall, body)
		}
	})
}

// callBatch runs one batched enclave crossing, falling back to
// per-message ECALLs when the crossing itself cannot run — most notably
// an epoch whose marshalling buffer the EPC cannot hold.
func (l *Layer) callBatch(name string, ins [][]byte) ([][]byte, []error) {
	outs, errs, err := l.cfg.Enclave.CallBatch(name, ins)
	if err == nil {
		return outs, errs
	}
	if errors.Is(err, enclave.ErrEPCExhausted) {
		l.epcFallbacks.Add(1)
	}
	outs = make([][]byte, len(ins))
	errs = make([]error, len(ins))
	for i, in := range ins {
		outs[i], errs[i] = l.cfg.Enclave.Ecall(name, in)
	}
	return outs, errs
}

// runBatch forwards one released epoch. vals arrive in the shuffler's
// permuted order; that order is the frame order and slot index is entry
// id. Every body was processed by the enclave when its request arrived, so
// the job starts at frame assembly.
func (l *Layer) runBatch(vals []any) {
	owners := make([]*batchItem, 0, len(vals))
	for _, v := range vals {
		if it, ok := v.(*batchItem); ok {
			owners = append(owners, it)
		}
	}
	if len(owners) == 0 {
		return
	}
	now := time.Now()
	entries := make([]message.BatchEntry, len(owners))
	for i, it := range owners {
		l.observeStageDur(StageShuffleWait, now.Sub(it.enq))
		kind := message.BatchKindPost
		if it.isGet {
			kind = message.BatchKindGet
		}
		entries[i] = message.BatchEntry{ID: i, Kind: kind, Body: it.body}
	}
	l.batches.Add(1)
	l.batchMsgs.Add(uint64(len(owners)))

	delivered := make([]bool, len(entries))
	deliver := func(idx int, res batchResult) {
		if delivered[idx] {
			return
		}
		delivered[idx] = true
		owners[idx].deliver(res)
	}

	// frame encodes the (sub-)epoch ids as one batch frame. Each call
	// mints a fresh epoch id: the frame transport matches the pooled
	// response to this exact exchange by it, and a retry is a new
	// exchange.
	frame := func(ids []int) ([]byte, error) {
		sub := make([]message.BatchEntry, len(ids))
		for j, id := range ids {
			sub[j] = entries[id]
		}
		return message.MarshalBatchEpoch(nil, l.hopEpoch.Add(1), sub)
	}
	// answer delivers a frame exchange's results to the ids it carried;
	// an error means frame-level failure with nothing delivered.
	answer := func(ids []int, status int, respBody []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("proxy: batch hop status %d", status)
		}
		_, results, err := message.UnmarshalBatchEpoch(respBody)
		if err != nil {
			return err
		}
		byID := make(map[int]message.BatchEntry, len(results))
		for _, res := range results {
			byID[res.ID] = res
		}
		for _, id := range ids {
			res, ok := byID[entries[id].ID]
			if !ok {
				deliver(id, batchResult{err: fmt.Errorf("proxy: batch response missing an entry")})
				continue
			}
			st := res.Status
			if st == 0 {
				st = http.StatusOK
			}
			deliver(id, batchResult{status: st, body: res.Body})
		}
		return nil
	}

	// send forwards one (sub-)frame and delivers its results; an error
	// means frame-level failure with nothing delivered, which is what the
	// ladder retries, splits, and finally degrades. It counts its rung
	// before anything is delivered: a send of fewer than all ids is a
	// split half, a whole-epoch send after the first a retry.
	sentWhole := false
	send := func(ids []int) error {
		if len(ids) < len(entries) {
			l.batchSplits.Add(1)
		} else if sentWhole {
			l.batchRetries.Add(1)
		}
		sentWhole = true
		if !l.breaker.Allow() {
			l.failFast.Add(1)
			return resilience.ErrBreakerOpen
		}
		payload, err := frame(ids)
		if err != nil {
			return err
		}
		actx, cancel := l.policy.AttemptContext(context.Background())
		status, respBody, err := l.forward(actx, message.BatchPath, payload)
		cancel()
		if err != nil {
			l.breaker.Report(false)
			return err
		}
		l.breaker.Report(true)
		return answer(ids, status, respBody)
	}

	// prep re-randomizes the sub-epoch's hop envelopes as a unit before a
	// retry leaves: one link/rewrap crossing for the whole sub-epoch, on a
	// data-processing worker like every enclave step. The enclave knows
	// from its key material whether there is an envelope to re-randomize;
	// a pass-through layer has no enclave and nothing to re-randomize.
	// (No shuffler re-entry: the epoch already granted these messages
	// their anonymity set, and the frame itself leaves as one message.)
	prep := func(ids []int) error {
		if len(ids) == 0 || l.cfg.Enclave == nil {
			return nil
		}
		ins := make([][]byte, len(ids))
		for j, id := range ids {
			ins[j] = entries[id].Body
		}
		start := time.Now()
		l.workers <- struct{}{}
		routs, rerrs := l.callBatch(ecallLinkRewrap, ins)
		<-l.workers
		l.observeStageDur(StageEcallRewrap, time.Since(start))
		for j, id := range ids {
			if rerrs[j] != nil {
				return rerrs[j]
			}
			entries[id].Body = routs[j]
		}
		return nil
	}

	// single degrades one message to a one-entry frame of its own, sent
	// under the item's own context with the same rewrap prep on retries,
	// so one poison message cannot wedge its epoch.
	single := func(id int) {
		l.batchDegraded.Add(1)
		ids := []int{id}
		payload, err := frame(ids)
		if err == nil {
			var status int
			var respBody []byte
			status, respBody, err = l.forwardResilient(owners[id].ctx, message.BatchPath, payload,
				func(context.Context, []byte) ([]byte, error) {
					if err := prep(ids); err != nil {
						return nil, err
					}
					return frame(ids)
				})
			if err == nil {
				err = answer(ids, status, respBody)
			}
		}
		if err != nil {
			deliver(id, batchResult{err: err})
		}
	}

	err := resilience.RunBatch(context.Background(), l.policy, len(entries), send, prep, single)
	if err == nil {
		err = errors.New("proxy: batch epoch unresolved")
	}
	for idx := range entries {
		deliver(idx, batchResult{err: err})
	}
}

// --- IA side: the /batch route ------------------------------------------

// handleBatch demultiplexes one batch frame: batch ECALLs for the enclave
// stages, per-message LRS traffic under the bounded fan-out, and one
// response frame whose entry order follows this layer's own shuffle
// permutation — so inbound epochs feed the epoch record.
func (l *Layer) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r.Body, maxBatchBody)
	if err != nil {
		if errors.Is(err, ErrBodyTooLarge) {
			l.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		l.fail(w, http.StatusBadRequest, "read request")
		return
	}
	epoch, entries, err := message.UnmarshalBatchEpoch(body)
	if err != nil {
		l.fail(w, http.StatusBadRequest, "bad batch envelope")
		return
	}

	results := l.processBatch(r.Context(), entries)

	perm, err := l.shuffler.ReleaseBatch(len(results))
	if err != nil {
		l.fail(w, statusFor(err), failText(err))
		return
	}
	out := make([]message.BatchEntry, len(results))
	for i, p := range perm {
		out[i] = results[p]
	}
	// Echo the request's epoch id: the UA validates it against its
	// exchange.
	payload, err := message.MarshalBatchEpoch(nil, epoch, out)
	if err != nil {
		l.fail(w, http.StatusInternalServerError, "marshal batch")
		return
	}
	for _, res := range results {
		if res.Status >= 200 && res.Status < 300 {
			l.served.Add(1)
		} else {
			l.failed.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// errEntry prices a failed entry with the same status mapping and
// constant text a UA answers its client with.
func errEntry(id int, err error) message.BatchEntry {
	return message.BatchEntry{ID: id, Status: statusFor(err), Body: []byte(failText(err))}
}

// processBatch resolves every entry of an inbound frame, in request order
// (the caller permutes afterwards).
func (l *Layer) processBatch(ctx context.Context, entries []message.BatchEntry) []message.BatchEntry {
	l.batches.Add(1)
	l.batchMsgs.Add(uint64(len(entries)))
	results := make([]message.BatchEntry, len(entries))
	var posts, gets []int
	for i, e := range entries {
		switch e.Kind {
		case message.BatchKindPost:
			posts = append(posts, i)
		case message.BatchKindGet:
			gets = append(gets, i)
		default:
			results[i] = message.BatchEntry{ID: e.ID, Status: http.StatusBadRequest, Body: []byte("unknown kind")}
		}
	}
	if l.cfg.PassThrough {
		// m1: both enclave steps are the identity, so each entry goes to
		// the LRS as it came and its answer goes back as it came.
		live := append(posts, gets...)
		l.fanOut(len(live), func(k int) {
			e := entries[live[k]]
			path, _ := message.BatchKindPath(e.Kind)
			results[live[k]] = l.relayLRS(ctx, e.ID, path, e.Body)
		})
		return results
	}
	l.processBatchPosts(ctx, entries, posts, results)
	l.processBatchGets(ctx, entries, gets, results)
	return results
}

// relayLRS sends one entry's LRS request and prices the answer as the
// entry's result. On the private path the LRS's status travels back but
// its body does not: the IA writes a constant in its place (lrsBody), so
// nothing the LRS chooses per request — an event id, an error naming the
// pseudonym — reaches the UA and the client past the shuffler. Pass-through
// (m1) relays the body: it is the identity by definition.
func (l *Layer) relayLRS(ctx context.Context, id int, path string, body []byte) message.BatchEntry {
	status, respBody, err := l.forwardLRS(ctx, path, body)
	if err != nil {
		return errEntry(id, err)
	}
	if !l.cfg.PassThrough {
		respBody = lrsBody(status)
	}
	return message.BatchEntry{ID: id, Status: status, Body: respBody}
}

// lrsBody is the constant body an IA answers an LRS status with on the
// private path: message.OK{Status: "ok"} as message.Marshal renders it for
// a 2xx, the status's own text otherwise — like errEntry, one text per
// class and no detail.
func lrsBody(status int) []byte {
	if status >= 200 && status < 300 {
		return []byte(`{"status":"ok"}`)
	}
	if text := http.StatusText(status); text != "" {
		return []byte(text)
	}
	return []byte("upstream error")
}

// fanOut runs fn(k) for k in [0, n) on at most the LRS semaphore's
// capacity of workers — the bounded replacement for one goroutine per
// message. fn still acquires the semaphore per request, sharing the
// budget with every other epoch.
func (l *Layer) fanOut(n int, fn func(k int)) {
	workers := l.lrsSem.Cap()
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		ch <- k
	}
	close(ch)
	wg.Wait()
}

// processBatchPosts: one ia/post crossing for the sub-batch, then
// per-message LRS inserts under the bounded fan-out.
func (l *Layer) processBatchPosts(ctx context.Context, entries []message.BatchEntry, idxs []int, results []message.BatchEntry) {
	if len(idxs) == 0 {
		return
	}
	ins := make([][]byte, len(idxs))
	for j, idx := range idxs {
		ins[j] = entries[idx].Body
	}
	start := time.Now()
	outs, errs := l.callBatch(ecallIAPost, ins)
	l.observeStageDur(StageEcallDecrypt, time.Since(start))

	var live []int
	for j, idx := range idxs {
		if errs[j] != nil {
			results[idx] = errEntry(entries[idx].ID, errs[j])
			continue
		}
		live = append(live, j)
	}
	l.fanOut(len(live), func(k int) {
		j := live[k]
		results[idxs[j]] = l.relayLRS(ctx, entries[idxs[j]].ID, message.EventsPath, outs[j])
	})
}

// batchGetState tracks one get entry between the two enclave crossings.
type batchGetState struct {
	idx    int    // position in entries/results
	handle string // parked temporary-key handle
	body   []byte // LRS request, then LRS response
	done   bool   // terminally resolved before the response crossing
}

// processBatchGets: one ia/get crossing parks every temporary key and
// emits the LRS requests, the requests fetch under the bounded fan-out,
// and one ia/get-response crossing seals every successful response.
// Handles are dropped on every early exit so a failed entry cannot leak
// its parked key in the EPC.
func (l *Layer) processBatchGets(ctx context.Context, entries []message.BatchEntry, idxs []int, results []message.BatchEntry) {
	if len(idxs) == 0 {
		return
	}
	handles := make([]string, len(idxs))
	ins := make([][]byte, len(idxs))
	for j, idx := range idxs {
		handles[j] = strconv.FormatUint(l.nextHandle.Add(1), 36)
		ins[j] = appendIAGetCall(nil, handles[j], entries[idx].Body)
	}
	start := time.Now()
	outs, errs := l.callBatch(ecallIAGet, ins)
	l.observeStageDur(StageEcallDecrypt, time.Since(start))

	states := make([]*batchGetState, 0, len(idxs))
	for j, idx := range idxs {
		if errs[j] != nil {
			results[idx] = errEntry(entries[idx].ID, errs[j])
			l.dropHandle(handles[j])
			continue
		}
		states = append(states, &batchGetState{idx: idx, handle: handles[j], body: outs[j]})
	}

	l.fanOut(len(states), func(k int) {
		st := states[k]
		status, reply, err := l.forwardLRS(ctx, message.QueriesPath, st.body)
		if err != nil {
			results[st.idx] = errEntry(entries[st.idx].ID, err)
			l.dropHandle(st.handle)
			st.done = true
			return
		}
		if status != http.StatusOK {
			results[st.idx] = message.BatchEntry{ID: entries[st.idx].ID, Status: status, Body: lrsBody(status)}
			l.dropHandle(st.handle)
			st.done = true
			return
		}
		st.body = reply
	})

	var pending []*batchGetState
	var respIns [][]byte
	for _, st := range states {
		if st.done {
			continue
		}
		pending = append(pending, st)
		respIns = append(respIns, appendIAGetCall(nil, st.handle, st.body))
	}
	if len(pending) == 0 {
		return
	}
	start = time.Now()
	respOuts, respErrs := l.callBatch(ecallIAGetResp, respIns)
	l.observeStageDur(StageEcallReencrypt, time.Since(start))
	for k, st := range pending {
		if respErrs[k] != nil {
			// The re-encrypt crossing consumes the parked key only on
			// success; clear it or the failed entry leaks EPC.
			results[st.idx] = errEntry(entries[st.idx].ID, respErrs[k])
			l.dropHandle(st.handle)
			continue
		}
		results[st.idx] = message.BatchEntry{ID: entries[st.idx].ID, Status: http.StatusOK, Body: respOuts[k]}
	}
}
