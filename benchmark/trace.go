package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/message"
)

// Span names. Nodes are spanned from outside, around each node's HTTP
// handler (hopwire frames are bridged through the same handler stack), so
// a span is the node's whole service time for one inbound message.
const (
	spanClientCall = "client.call" // one Get/Post of the user-side library
	spanClientHTTP = "client.http" // its HTTP round trip to the entry node
	spanUAServe    = "ua.serve"    // ua-0 POST /queries|/events
	spanIABatch    = "ia.batch"    // ia-0 POST /batch, one per epoch
	spanLRSGet     = "lrs.get"     // lrs-0 POST /queries (engine)
	spanLRSPost    = "lrs.post"    // lrs-0 POST /events (engine)
	spanStubGet    = "stub.get"    // lrs-0 POST /queries (static stub)
	spanStubPost   = "stub.post"   // lrs-0 POST /events (static stub)
)

// backend reports whether the span is the LRS node's — engine or stub.
func (s Span) backend() bool {
	switch s.Name {
	case spanLRSGet, spanLRSPost, spanStubGet, spanStubPost:
		return true
	}
	return false
}

// Span is one traced interval. Start and End are nanoseconds since the
// tracer was created. Parent indexes the causing span in the exported
// slice (−1 for roots) and Epoch numbers the shuffle epoch the span
// belongs to (−1 when it belongs to none); both are filled in by link
// from timing alone — no request identity crosses a layer.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  int    `json:"epoch"`

	// id and parentID tie a client.http span to its client.call while
	// recording; link turns them into Parent indexes.
	id, parentID int
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// contains reports whether s covers o entirely.
func (s Span) contains(o Span) bool { return s.Start <= o.Start && s.End >= o.End }

// Tracer records spans in memory while recording is switched on. It is
// installed at deploy time; switched off it costs one atomic load per
// request.
type Tracer struct {
	t0 time.Time
	on atomic.Bool
	// stub names the LRS node's spans stub.* so that lrs.* metrics stay
	// zero when no engine runs.
	stub bool

	mu    sync.Mutex
	spans []Span
	// frame is a copy of the first UA→IA batch frame seen while
	// recording: the workload's own input for the frame-codec timings.
	frame []byte
}

func NewTracer(stub bool) *Tracer { return &Tracer{t0: time.Now(), stub: stub} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records one span and returns its id; parentID is the id of the
// span known to have caused it, or −1.
func (t *Tracer) add(name string, start, end int64, parentID int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: -1, Epoch: -1, id: id, parentID: parentID})
	return id
}

// Spans returns the recorded spans sorted by start time.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Frame returns the captured batch frame (nil when none was seen).
func (t *Tracer) Frame() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frame
}

// NodeMiddleware is the cluster.Spec.NodeMiddleware hook: it spans every
// data-path POST a node serves and leaves health probes and metric
// scrapes alone.
func (t *Tracer) NodeMiddleware(addr string, h http.Handler) http.Handler {
	role, _, _ := strings.Cut(addr, "-")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanName(role, t.stub, r)
		if name == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		if name == spanIABatch {
			t.captureFrame(r)
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(name, start, t.now(), -1)
	})
}

func spanName(role string, stub bool, r *http.Request) string {
	if r.Method != http.MethodPost {
		return ""
	}
	switch {
	case role == "ua" && (r.URL.Path == message.QueriesPath || r.URL.Path == message.EventsPath):
		return spanUAServe
	case role == "ia" && r.URL.Path == message.BatchPath:
		return spanIABatch
	case role == "lrs" && r.URL.Path == message.QueriesPath:
		if stub {
			return spanStubGet
		}
		return spanLRSGet
	case role == "lrs" && r.URL.Path == message.EventsPath:
		if stub {
			return spanStubPost
		}
		return spanLRSPost
	}
	return ""
}

// captureFrame keeps a copy of the first batch body and hands the handler
// an identical one.
func (t *Tracer) captureFrame(r *http.Request) {
	t.mu.Lock()
	have := t.frame != nil
	t.mu.Unlock()
	if have {
		return
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil || !message.IsFrame(body) {
		return
	}
	t.mu.Lock()
	t.frame = body
	t.mu.Unlock()
}

// callKey carries the driver's per-request record to the round tripper.
// It never leaves the client: nothing downstream can read a context.
type callKey struct{}

// roundTripper brackets the client library's HTTP exchange, which splits
// a call into encryption (before), the service (during) and decryption
// (after).
type roundTripper struct {
	t    *Tracer
	next http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	s, _ := r.Context().Value(callKey{}).(*Sample)
	if s == nil {
		return rt.next.RoundTrip(r)
	}
	s.HTTPStart = rt.t.now()
	resp, err := rt.next.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	// The library reads the whole body before decrypting; the exchange
	// ends when the body does.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	s.HTTPEnd = rt.t.now()
	return resp, err
}

// link fills in Parent and Epoch. Spans must be sorted by start. Each
// ia.batch span defines one epoch; a span joins the epoch of the last
// batch it contains (client.http, ua.serve) or of the batch that contains
// it (the LRS node's).
// The batch is caused by the last ua.serve to arrive in its epoch; a
// client.http span by the client.call the driver recorded it under.
func link(spans []Span) {
	byID := make(map[int]int, len(spans))
	var batches []int
	for i, s := range spans {
		byID[s.id] = i
		if s.Name == spanIABatch {
			spans[i].Epoch = len(batches)
			batches = append(batches, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanClientHTTP || s.Name == spanUAServe:
			// Under load a request can be sent before the previous
			// epoch's batch starts and still miss it: its own batch is
			// the last one it contains.
			for e, b := range batches {
				if s.contains(spans[b]) {
					s.Epoch = e
				}
			}
		case s.backend():
			for e, b := range batches {
				if spans[b].contains(*s) {
					s.Epoch, s.Parent = e, b
					break
				}
			}
		}
	}
	for i, s := range spans {
		switch {
		case s.Name == spanUAServe && s.Epoch >= 0:
			spans[batches[s.Epoch]].Parent = i // start-sorted: the last one wins
		case s.Name == spanClientHTTP && s.parentID >= 0:
			p := byID[s.parentID]
			spans[i].Parent = p
			spans[p].Epoch = s.Epoch
		}
	}
}

// selfTime is the span's duration minus the part of it its children
// cover: overlapping children count once and the parts of a child outside
// the parent not at all.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

// Budget is the per-request latency budget seen from outside, in mean
// milliseconds per traced request: where a request's time went, layer by
// layer. Client+Edge+UA+IA+LRS equals the mean client.call duration when
// every span found its epoch.
type Budget struct {
	Calls int
	// Call is the mean client.call duration; Client its part outside the
	// HTTP exchange (request encryption, response decryption).
	Call, Client float64
	// Edge is the client's HTTP exchange minus the entry node's service
	// time: loopback transport plus HTTP client and server overhead.
	Edge float64
	// UAServe/IAServe are mean node service times, UA/IA their self
	// times (service minus what the next hop covers) and LRS the time an
	// epoch's LRS-node spans cover (engine or stub; the mean service
	// time per request when there is no proxy).
	UAServe, UA, IAServe, IA, LRS float64
	// LRSGet/LRSPost are the engine's mean service times per request
	// (zero when the stub serves).
	LRSGet, LRSPost float64
}

// budget folds linked spans into the budget. Proxied deployments average
// per epoch, then over epochs that are complete (every one of its S calls
// and serves found); a direct deployment averages over requests.
func budget(spans []Span, proxied bool) Budget {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var b Budget
	var lrsGet, lrsPost []time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanLRSGet:
			lrsGet = append(lrsGet, s.dur())
		case spanLRSPost:
			lrsPost = append(lrsPost, s.dur())
		}
	}
	b.LRSGet, b.LRSPost = meanMs(lrsGet), meanMs(lrsPost)

	if !proxied {
		var call, http, lrs time.Duration
		var nHTTP, nLRS int
		for _, s := range spans {
			switch s.Name {
			case spanClientCall:
				call += s.dur()
				b.Calls++
			case spanClientHTTP:
				http += s.dur()
				nHTTP++
			}
			if s.backend() {
				lrs += s.dur()
				nLRS++
			}
		}
		if b.Calls == 0 || nHTTP == 0 || nLRS == 0 {
			return b
		}
		b.Call = ms(call) / float64(b.Calls)
		b.LRS = ms(lrs) / float64(nLRS)
		b.Edge = ms(http)/float64(nHTTP) - b.LRS
		b.Client = b.Call - ms(http)/float64(nHTTP)
		return b
	}

	type epoch struct {
		batch            *Span
		calls, https     []Span
		serves, lrsSpans []Span
	}
	var epochs []*epoch
	for i := range spans {
		s := spans[i]
		if s.Epoch < 0 {
			continue
		}
		for len(epochs) <= s.Epoch {
			epochs = append(epochs, &epoch{})
		}
		e := epochs[s.Epoch]
		switch s.Name {
		case spanIABatch:
			e.batch = &spans[i]
		case spanClientCall:
			e.calls = append(e.calls, s)
		case spanClientHTTP:
			e.https = append(e.https, s)
		case spanUAServe:
			e.serves = append(e.serves, s)
		}
		if s.backend() {
			e.lrsSpans = append(e.lrsSpans, s)
		}
	}
	n := 0
	for _, e := range epochs {
		if e.batch == nil || len(e.calls) != shuffleSize || len(e.https) != shuffleSize || len(e.serves) != shuffleSize {
			continue
		}
		n++
		var call, http, serve, uaSelf time.Duration
		for i := 0; i < shuffleSize; i++ {
			call += e.calls[i].dur()
			http += e.https[i].dur()
			serve += e.serves[i].dur()
			uaSelf += selfTime(e.serves[i], []Span{*e.batch})
		}
		iaSelf := selfTime(*e.batch, e.lrsSpans)
		b.Call += ms(call) / shuffleSize
		b.Client += ms(call-http) / shuffleSize
		b.Edge += ms(http-serve) / shuffleSize
		b.UAServe += ms(serve) / shuffleSize
		b.UA += ms(uaSelf) / shuffleSize
		b.IAServe += ms(e.batch.dur())
		b.IA += ms(iaSelf)
		b.LRS += ms(e.batch.dur() - iaSelf)
	}
	if n == 0 {
		return b
	}
	b.Calls = n * shuffleSize
	for _, f := range []*float64{&b.Call, &b.Client, &b.Edge, &b.UAServe, &b.UA, &b.IAServe, &b.IA, &b.LRS} {
		*f /= float64(n)
	}
	return b
}
