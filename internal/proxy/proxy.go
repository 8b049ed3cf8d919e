// Package proxy implements the PProx privacy-preserving proxy service
// (§§3–5 of the paper): two layers of anonymizing proxies running in SGX
// enclaves between the user-side library and an unmodified legacy
// recommendation system.
//
//   - The User Anonymizer (UA) layer decrypts and pseudonymizes user
//     identifiers; it never sees item identifiers.
//   - The Item Anonymizer (IA) layer decrypts and pseudonymizes item
//     identifiers and re-encrypts recommendation lists under the client's
//     temporary key; it never sees user identifiers or addresses.
//
// Each layer shuffles traffic (UA on the request path, IA on the response
// path) so a network observer cannot correlate flows across the proxy
// (§4.3). There is one request pipeline (batch.go): the UA releases
// requests in shuffle epochs, each epoch crosses to the IA as one batch
// frame, and the IA answers it with one frame permuted by its own
// shuffler; unshuffled deployments run the same path with epochs of one.
// The untrusted server part of each layer handles only opaque bytes: all
// cryptography happens in ECALLs into the layer's enclave, with a bounded
// data-processing worker pool standing in for the paper's in-enclave
// thread pool (§5).
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/enclave"
	"pprox/internal/hopwire"
	"pprox/internal/message"
	"pprox/internal/resilience"
	"pprox/internal/transport"
)

// Role distinguishes the two proxy layers.
type Role int

// Layer roles.
const (
	RoleUA Role = iota + 1
	RoleIA
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleUA:
		return "UA"
	case RoleIA:
		return "IA"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Config assembles one proxy layer instance.
type Config struct {
	// Role selects UA or IA behaviour.
	Role Role
	// Enclave is the provisioned enclave executing this layer's
	// cryptography (NewUAEnclave / NewIAEnclave).
	Enclave *enclave.Enclave
	// Next is the base URL of the next hop: the IA layer's balancer for
	// a UA instance, the LRS for an IA instance.
	Next string
	// Dialer reaches Next — the memnet network, a cluster balancer, or a
	// *net.Dialer. The layer builds both of its clients on it: a UA's
	// batch frames ride pooled hopwire connections (DESIGN.md §4h), an
	// IA's LRS requests plain HTTP keep-alive, and either role's health
	// probes HTTP. Required.
	Dialer transport.Dialer
	// ShuffleSize is S (§4.3). The UA layer shuffles requests, the IA
	// layer shuffles responses. Values ≤ 1 turn shuffling off: the UA
	// then releases every request as an epoch of one, the IA answers in
	// arrival order.
	ShuffleSize int
	// ShuffleTimeout bounds how long a partially filled buffer waits.
	ShuffleTimeout time.Duration
	// TableSize caps the pending table T (default 4×S).
	TableSize int
	// PassThrough forwards bodies untouched (micro-benchmark m1: no
	// encryption): the same pipeline with both enclave steps as identity.
	// Shuffling still applies if configured.
	PassThrough bool
	// Resilience bounds this layer's fault handling toward the next hop:
	// per-attempt deadline, retries, and the circuit breaker probing the
	// hop's /healthz. Nil means a single attempt, bounded only by the
	// client timeout, with no breaker. Retries on the UA layer are
	// privacy-aware: each retry re-randomizes the hop envelope (when a
	// link key is provisioned) and re-enters the shuffler.
	Resilience *resilience.Policy
	// LRSConcurrency bounds the IA→LRS fan-out (IA role only): at most
	// this many LRS requests in flight per layer instance, across every
	// demultiplexed epoch. 0 selects DefaultLRSConcurrency; negative
	// disables the bound.
	LRSConcurrency int
}

// DefaultLRSConcurrency is the IA→LRS fan-out bound when the
// configuration leaves Config.LRSConcurrency zero.
const DefaultLRSConcurrency = 64

// Layer is one proxy instance (one node of one layer). It serves the same
// REST API as the LRS and forwards transformed traffic to the next hop.
type Layer struct {
	cfg      Config
	shuffler *Shuffler
	workers  chan struct{}
	policy   resilience.Policy
	breaker  *resilience.Breaker
	// epochs joins the UA's per-epoch forwarding goroutines, and cross
	// holds the enclave crossings of the epoch filling now.
	epochs sync.WaitGroup
	cross  uaCrossings
	// lrsSem bounds the IA→LRS fan-out (IA role; nil = unbounded).
	lrsSem *resilience.Semaphore
	// http reaches Next over HTTP: an IA's LRS requests and either
	// role's health probes.
	http *http.Client
	// hop is the UA's binary frame transport toward the IA; nil on an IA.
	hop *hopwire.Client
	// hopEpoch mints batch-frame epoch ids for this instance's envelopes.
	hopEpoch atomic.Uint64

	nextHandle atomic.Uint64
	served     atomic.Uint64
	failed     atomic.Uint64
	retries    atomic.Uint64
	failFast   atomic.Uint64

	// Batch-pipeline counters (BatchStats).
	batches       atomic.Uint64
	batchMsgs     atomic.Uint64
	batchRetries  atomic.Uint64
	batchSplits   atomic.Uint64
	batchDegraded atomic.Uint64
	epcFallbacks  atomic.Uint64

	// obs is installed by RegisterMetrics and read lock-free on the
	// request path.
	obs atomic.Pointer[instruments]
	// epochFn and logger are installed by SetEpochObserver / SetLogger;
	// rec numbers the epoch records.
	epochFn atomic.Pointer[func(EpochRecord)]
	logger  atomic.Pointer[slog.Logger]
	rec     epochRecords

	// Drain lifecycle (drain.go): draining marks the soft phase (serve
	// but break keep-alive), refusing the hard phase (503 new requests),
	// inflight counts app requests between accept and response, and the
	// *Base/stranded fields implement the DrainReport.Clean invariant.
	draining       atomic.Bool
	refusing       atomic.Bool
	inflight       atomic.Int64
	drainShedsBase atomic.Uint64
	drainPendingAt atomic.Int64
	drainStranded  atomic.Bool
}

// New creates a layer instance from its configuration.
func New(cfg Config) (*Layer, error) {
	if cfg.Role != RoleUA && cfg.Role != RoleIA {
		return nil, fmt.Errorf("proxy: invalid role %d", int(cfg.Role))
	}
	if !cfg.PassThrough && cfg.Enclave == nil {
		return nil, errors.New("proxy: enclave required unless pass-through")
	}
	if cfg.Next == "" {
		return nil, errors.New("proxy: next hop required")
	}
	if cfg.Dialer == nil {
		return nil, errors.New("proxy: dialer required")
	}
	pol := resilience.Policy{MaxAttempts: 1}
	if cfg.Resilience != nil {
		pol = cfg.Resilience.WithDefaults()
	}
	l := &Layer{
		cfg:     cfg,
		workers: make(chan struct{}, workers),
		policy:  pol,
		// Never http.DefaultClient: it has no timeout, so one hung next
		// hop would pin request goroutines forever.
		http: transport.HTTPClient(cfg.Dialer, defaultClientTimeout),
	}
	if cfg.Role == RoleUA {
		hop, err := hopwire.NewClient(cfg.Dialer, cfg.Next)
		if err != nil {
			return nil, fmt.Errorf("proxy: %w", err)
		}
		l.hop = hop
	}
	l.breaker = resilience.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown,
		resilience.HTTPHealthProbe(l.http, cfg.Next+message.HealthPath, pol.HopTimeout))
	switch {
	case cfg.Role == RoleUA:
		// The UA always has epochs: at S ≤ 1 a size-1 shuffler flushes on
		// every Enqueue, so each request leaves as an epoch of one.
		l.shuffler = NewShuffler(cfg.ShuffleSize, cfg.ShuffleTimeout, cfg.TableSize)
		l.shuffler.SetBatchSink(func(vals []any) {
			// Runs under the shuffler lock: end the epoch's enclave
			// crossings and forward the epoch on a goroutine of its own
			// (network wait plus at most one rewrap crossing, which takes
			// a worker slot like every other enclave step). Every epoch
			// carries at least one admitted request, so these are bounded
			// as the request handlers are, and a pool would only cap the
			// epochs in flight. Close joins them, so every admitted
			// request gets its answer.
			l.closeCrossings()
			l.epochs.Add(1)
			go func() {
				defer l.epochs.Done()
				l.runBatch(vals)
			}()
		})
	case cfg.ShuffleSize > 1:
		l.shuffler = NewShuffler(cfg.ShuffleSize, cfg.ShuffleTimeout, cfg.TableSize)
	}
	// Install the flush hooks that exist independently of metrics
	// registration: epoch records must not depend on an observability
	// call.
	l.rewireShuffler()
	if cfg.Role == RoleIA {
		n := cfg.LRSConcurrency
		if n == 0 {
			n = DefaultLRSConcurrency
		}
		// NewSemaphore treats n ≤ 0 as unbounded, which is what a
		// negative LRSConcurrency selects.
		l.lrsSem = resilience.NewSemaphore(n)
	}
	return l, nil
}

// workers sizes the data-processing pool: one thread per core on the
// paper's 2-core nodes.
const workers = 2

// defaultClientTimeout bounds one next-hop request over HTTP.
const defaultClientTimeout = 30 * time.Second

// Close releases buffered messages, waits for in-flight epochs, and
// writes the final partial epoch record (shutdown path). The shuffler
// closes first — its final flush still starts that epoch's goroutine, and
// no flush can follow it — then every started epoch runs to completion,
// so no admitted request is left without a response.
func (l *Layer) Close() {
	if l.draining.Load() && l.shuffler.Pending() > 0 {
		// A drained instance must leave through an empty shuffler: its
		// final epoch flushed whole before teardown. Closing with
		// messages still buffered would release them as a sub-S batch.
		l.drainStranded.Store(true)
	}
	l.cross.mu.Lock()
	l.cross.closed = true
	l.cross.mu.Unlock()
	l.shuffler.Close()
	// An epoch whose every arrival the enclave rejected opened crossings
	// no flush will end.
	l.closeCrossings()
	l.epochs.Wait()
	l.hop.Close()
	l.http.CloseIdleConnections()
	l.Record()
}

// Hopwire exposes the layer's frame transport client, for metrics and
// tests: the UA's link to the IA, nil on an IA.
func (l *Layer) Hopwire() *hopwire.Client { return l.hop }

// Config returns the configuration the layer runs, defaults applied.
func (l *Layer) Config() Config { return l.cfg }

// Stats returns served and failed request counts.
func (l *Layer) Stats() (served, failed uint64) {
	return l.served.Load(), l.failed.Load()
}

// Shuffler exposes the layer's shuffler, for tests and operational
// metrics: a UA always has one (size 1 when shuffling is off), an IA only
// when S > 1.
func (l *Layer) Shuffler() *Shuffler { return l.shuffler }

// RetryStats returns how many forward retries ran and how many requests
// failed fast on an open next-hop breaker.
func (l *Layer) RetryStats() (retries, failFast uint64) {
	return l.retries.Load(), l.failFast.Load()
}

// BatchStats reports the request pipeline's counters: epochs forwarded
// (UA) or demultiplexed (IA) as one frame, messages inside them,
// whole-frame retry sends, sub-frame sends after splitting, messages
// degraded to one-entry frames under their own context, and batch ECALLs
// that fell back to per-message crossings on EPC exhaustion.
type BatchStats struct {
	Batches      uint64
	Messages     uint64
	Retries      uint64
	Splits       uint64
	Degraded     uint64
	EPCFallbacks uint64
}

// BatchStats returns the layer's pipeline counters.
func (l *Layer) BatchStats() BatchStats {
	return BatchStats{
		Batches:      l.batches.Load(),
		Messages:     l.batchMsgs.Load(),
		Retries:      l.batchRetries.Load(),
		Splits:       l.batchSplits.Load(),
		Degraded:     l.batchDegraded.Load(),
		EPCFallbacks: l.epcFallbacks.Load(),
	}
}

// LRSInFlight returns the current IA→LRS fan-out occupancy (the
// pprox_lrs_inflight gauge; always 0 on a UA layer or when unbounded).
func (l *Layer) LRSInFlight() int64 { return l.lrsSem.InFlight() }

// Breaker exposes the next-hop circuit breaker (nil when disabled), for
// metrics and tests.
func (l *Layer) Breaker() *resilience.Breaker { return l.breaker }

// Enclave exposes the layer's enclave (nil in pass-through mode), for the
// security experiments that compromise it.
func (l *Layer) Enclave() *enclave.Enclave { return l.cfg.Enclave }

// ServeHTTP implements the layer's endpoint: a UA serves the LRS REST API
// (/events, /queries) to clients, an IA serves only /batch frames from the
// UA layer; both serve /healthz.
func (l *Layer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var serve http.HandlerFunc
	if r.Method == http.MethodPost {
		switch {
		case l.cfg.Role == RoleUA && (r.URL.Path == message.EventsPath || r.URL.Path == message.QueriesPath):
			serve = l.handle
		case l.cfg.Role == RoleIA && r.URL.Path == message.BatchPath:
			serve = l.handleBatch
		}
	}
	if serve == nil {
		if r.Method == http.MethodGet && r.URL.Path == message.HealthPath {
			fmt.Fprint(w, "ok")
			return
		}
		http.NotFound(w, r)
		return
	}
	if l.refusing.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if l.draining.Load() {
		// Soft drain: keep serving, but evict this connection from
		// keep-alive pools so no new request rides it back here.
		w.Header().Set("Connection", "close")
	}
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	// The serve stage wraps the whole hop, success or failure: it is the
	// end-to-end histogram the latency SLO evaluates.
	defer l.observeStage(StageServe, time.Now())
	serve(w, r)
}

// handle serves one client request on a UA: process it in the enclave,
// let it ride a shuffle epoch to the IA, and relay the (client-encrypted)
// answer. A request counts as served only if the answer is 2xx — the same
// rule the IA's handleBatch applies to each entry.
func (l *Layer) handle(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r.Body, maxBody)
	if err != nil {
		if errors.Is(err, ErrBodyTooLarge) {
			l.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		l.fail(w, http.StatusBadRequest, "read request")
		return
	}

	status, respBody, err := l.admit(r.Context(), body, r.URL.Path == message.QueriesPath)
	if err != nil {
		l.fail(w, statusFor(err), failText(err))
		l.logWarn("request failed",
			"layer", l.roleLabel(), "path", r.URL.Path, "class", failClass(err))
		return
	}

	if status >= 200 && status < 300 {
		l.served.Add(1)
	} else {
		l.failed.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(respBody)
}

func (l *Layer) fail(w http.ResponseWriter, status int, msg string) {
	l.failed.Add(1)
	http.Error(w, msg, status)
}

// statusFor maps a pipeline error to the HTTP status a client sees; the
// same mapping prices each entry of a batch envelope.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrTableFull) || errors.Is(err, ErrShufflerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, errEnclave):
		return http.StatusBadRequest
	case errors.Is(err, resilience.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// failText is the constant-per-class response text. No detail: the
// untrusted host must not relay why the enclave rejected a ciphertext.
func failText(err error) string {
	switch {
	case errors.Is(err, ErrTableFull):
		return "shuffling table full"
	case errors.Is(err, ErrShufflerClosed):
		return "shutting down"
	case errors.Is(err, errEnclave):
		return "request rejected"
	case errors.Is(err, resilience.ErrBreakerOpen):
		return "next hop unavailable"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "upstream error"
	}
}

// failClass maps a pipeline error to a bounded-cardinality label for log
// records. It deliberately never renders err.Error(): upstream errors
// wrap URLs and transport detail that belong in metrics dimensions, not
// free text.
func failClass(err error) string {
	switch {
	case errors.Is(err, ErrTableFull):
		return "table_full"
	case errors.Is(err, ErrShufflerClosed):
		return "shutdown"
	case errors.Is(err, errEnclave):
		return "enclave_reject"
	case errors.Is(err, resilience.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "upstream"
	}
}

// dropHandle clears a parked temporary key when the request it belongs to
// dies before its response transformation, so the EPC store cannot leak.
func (l *Layer) dropHandle(handle string) {
	if handle != "" && l.cfg.Enclave != nil {
		l.cfg.Enclave.KV().Delete(handle)
	}
}

// onWorker runs one message's enclave work on a data-processing worker,
// modelling the fixed pool of in-enclave threads consuming the shared
// queue (§5). The stage measurement covers the wait for a free worker plus
// the ECALL itself — the paper's in-enclave queueing + crypto cost; the
// ECALL-only duration is measured separately by the enclave's own
// observer.
func (l *Layer) onWorker(stage string, work func() ([]byte, error)) ([]byte, error) {
	defer l.observeStage(stage, time.Now())
	l.workers <- struct{}{}
	defer func() { <-l.workers }()
	return work()
}

// forwardLRS is the IA→LRS hop: forwardResilient under the layer's
// fan-out semaphore, so demultiplexed epochs hold at most LRSConcurrency
// requests against the legacy API at once instead of one goroutine each,
// unbounded.
func (l *Layer) forwardLRS(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if err := l.lrsSem.Acquire(ctx); err != nil {
		return 0, nil, err
	}
	defer l.lrsSem.Release()
	return l.forwardResilient(ctx, path, body, nil)
}

// forwardResilient drives forward attempts under the layer's resilience
// policy: breaker gating, jittered backoff, a per-attempt deadline, and a
// per-retry prep callback that re-establishes the privacy properties of
// the attempt before it leaves again (a UA entry degraded to a one-entry
// frame; nil for the IA→LRS hop). The breaker is fed transport outcomes only — an HTTP error status
// still proves the hop alive.
func (l *Layer) forwardResilient(ctx context.Context, path string, body []byte, prep func(context.Context, []byte) ([]byte, error)) (int, []byte, error) {
	pol := l.policy
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	lastErr := errors.New("proxy: no forward attempt ran")
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := resilience.Sleep(ctx, pol.Backoff(attempt)); err != nil {
				return 0, nil, err
			}
		}
		if !l.breaker.Allow() {
			l.failFast.Add(1)
			lastErr = resilience.ErrBreakerOpen
			continue
		}
		if attempt > 0 {
			l.retries.Add(1)
			if prep != nil {
				var err error
				if body, err = prep(ctx, body); err != nil {
					return 0, nil, err
				}
			}
		}
		actx, cancel := pol.AttemptContext(ctx)
		status, respBody, err := l.forward(actx, path, body)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				// The caller departed; that says nothing about the hop
				// and there is nobody left to retry for.
				return 0, nil, err
			}
			l.breaker.Report(false)
			lastErr = err
			continue
		}
		l.breaker.Report(true)
		if resilience.RetryableStatus(status) && attempt+1 < attempts {
			lastErr = fmt.Errorf("proxy: upstream status %d", status)
			continue
		}
		return status, respBody, nil
	}
	return 0, nil, lastErr
}

// forward relays a transformed request to the next hop and returns its
// status and body. The whole round trip is the forward stage. The role
// picks the protocol: a UA's epoch frame rides a pooled frame
// connection, an IA's request to the LRS is a plain REST POST over
// keep-alive. Transport faults of either surface to the breaker and the
// retry ladder.
func (l *Layer) forward(ctx context.Context, path string, body []byte) (int, []byte, error) {
	defer l.observeStage(StageForward, time.Now())
	if l.hop != nil {
		status, respBody, err := l.hop.RoundTrip(ctx, path, body)
		if err != nil {
			return 0, nil, fmt.Errorf("proxy: forward to %s: %w", l.cfg.Next, err)
		}
		return status, respBody, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.cfg.Next+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("proxy: build forward request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.http.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("proxy: forward to %s: %w", l.cfg.Next, err)
	}
	defer resp.Body.Close()
	respBody, err := readBody(resp.Body, maxBody)
	if err != nil {
		return 0, nil, fmt.Errorf("proxy: read upstream response: %w", err)
	}
	return resp.StatusCode, respBody, nil
}

// maxBody bounds message sizes; PProx traffic is constant-size and small.
const maxBody = 1 << 20

// maxBatchBody bounds a whole batch frame: one epoch of up to table-size
// messages plus framing.
const maxBatchBody = 8 << 20
