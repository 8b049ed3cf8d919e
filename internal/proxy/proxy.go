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
// Each layer buffers and shuffles traffic (UA on the request path, IA on
// the response path) so a network observer cannot correlate flows across
// the proxy (§4.3). The untrusted server part of each layer handles only
// opaque bytes: all cryptography happens in ECALLs into the layer's
// enclave, with a bounded data-processing worker pool standing in for the
// paper's in-enclave thread pool (§5).
package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pprox/internal/enclave"
	"pprox/internal/eventloop"
	"pprox/internal/hopwire"
	"pprox/internal/message"
	"pprox/internal/reccache"
	"pprox/internal/resilience"
	"pprox/internal/trace"
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
	// HTTPClient carries traffic to the next hop.
	HTTPClient *http.Client
	// ShuffleSize is S; values ≤ 1 disable shuffling (§4.3). The UA
	// layer shuffles requests, the IA layer shuffles responses.
	ShuffleSize int
	// ShuffleTimeout bounds how long a partially filled buffer waits.
	ShuffleTimeout time.Duration
	// TableSize caps the pending table T (default 4×S).
	TableSize int
	// Workers sizes the data-processing pool; the paper uses one thread
	// per core on 2-core nodes, so the default is 2.
	Workers int
	// PassThrough forwards bodies untouched (micro-benchmark m1: no
	// encryption). Shuffling still applies if configured.
	PassThrough bool
	// Resilience bounds this layer's fault handling toward the next hop:
	// per-attempt deadline, retries, and the circuit breaker probing the
	// hop's /healthz. Nil means a single attempt, bounded only by the
	// HTTP client, with no breaker. Retries on the UA layer are
	// privacy-aware: each retry re-randomizes the hop envelope (when a
	// link key is provisioned) and re-enters the shuffler.
	Resilience *resilience.Policy
	// RecCache is the in-enclave recommendation cache (IA role only).
	// It must be the same cache passed to NewIAEnclave via
	// IAOptions.Cache: the layer drives coalescing and epoch-granular
	// stat publication on it, the enclave does lookups and fills.
	RecCache *reccache.Cache
	// Batch selects the epoch-batched pipeline on a UA layer (DESIGN.md
	// §4f): requests join shuffle epochs without blocking a goroutine
	// each, every epoch is processed in one batch ECALL, and leaves as
	// ONE batch envelope POSTed to the IA's /batch route. Requires the
	// enclave path and ShuffleSize > 1 (epochs are what is batched). An
	// IA layer ignores the flag — it always serves /batch when it has an
	// enclave.
	Batch bool
	// LRSConcurrency bounds the IA→LRS fan-out (IA role only): at most
	// this many LRS requests in flight per layer instance, covering both
	// demultiplexed batch epochs and the per-message path. 0 selects
	// DefaultLRSConcurrency; negative disables the bound.
	LRSConcurrency int
	// Hopwire selects the persistent binary-framed hop transport toward
	// Next (DESIGN.md §4h): batch envelopes and per-message forwards ride
	// pooled frame connections, falling back to HTTP while the peer does
	// not speak the protocol. Requires HopDialer.
	Hopwire bool
	// HopDialer dials hopwire connections — the memnet network, a
	// cluster balancer, or a *net.Dialer — matching how HTTPClient
	// reaches Next.
	HopDialer transport.Dialer
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
	// jobs runs one job per shuffle epoch in batch mode (UA role), and
	// cross holds the enclave crossings of the epoch filling now.
	jobs  *eventloop.JobPool
	cross uaCrossings
	// lrsSem bounds the IA→LRS fan-out (IA role; nil = unbounded).
	lrsSem *resilience.Semaphore
	// hop is the binary frame transport toward Next (nil = HTTP only).
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

	// obs and tracer are installed by RegisterMetrics / SetTracer and
	// read lock-free on the request path.
	obs    atomic.Pointer[instruments]
	tracer atomic.Pointer[trace.Tracer]
	// epochFn and logger are installed by SetEpochObserver / SetLogger.
	epochFn atomic.Pointer[func(int)]
	logger  atomic.Pointer[slog.Logger]

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
	if cfg.HTTPClient == nil {
		// Never http.DefaultClient: it has no timeout, so one hung next
		// hop would pin request goroutines forever.
		cfg.HTTPClient = transport.DefaultHTTPClient(defaultClientTimeout)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	pol := resilience.Policy{MaxAttempts: 1}
	if cfg.Resilience != nil {
		pol = cfg.Resilience.WithDefaults()
	}
	l := &Layer{
		cfg:     cfg,
		workers: make(chan struct{}, cfg.Workers),
		policy:  pol,
	}
	if cfg.RecCache != nil {
		if cfg.Role != RoleIA {
			return nil, errors.New("proxy: recommendation cache is IA-only")
		}
		if cfg.PassThrough {
			return nil, errors.New("proxy: recommendation cache requires the enclave path")
		}
	}
	l.breaker = resilience.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown,
		resilience.HTTPHealthProbe(cfg.HTTPClient, cfg.Next+message.HealthPath, pol.HopTimeout))
	if cfg.ShuffleSize > 1 {
		l.shuffler = NewShuffler(cfg.ShuffleSize, cfg.ShuffleTimeout, cfg.TableSize)
		// Install the flush hooks that exist independently of metrics
		// registration — in particular the cache's epoch-granular stat
		// publication must not depend on an observability call.
		l.rewireShuffler()
	} else if cfg.RecCache != nil {
		// Without a shuffler there are no epochs to batch stat export
		// into — and no 1/S bound for sub-epoch updates to erode — so
		// cache counters publish live.
		cfg.RecCache.SetPublishLive(true)
	}
	if cfg.Role == RoleIA {
		n := cfg.LRSConcurrency
		if n == 0 {
			n = DefaultLRSConcurrency
		}
		// NewSemaphore treats n ≤ 0 as unbounded, which is what a
		// negative LRSConcurrency selects.
		l.lrsSem = resilience.NewSemaphore(n)
	}
	if cfg.Hopwire {
		if cfg.HopDialer == nil {
			return nil, errors.New("proxy: hopwire requires HopDialer")
		}
		hw, err := hopwire.NewClient(cfg.HopDialer, cfg.Next)
		if err != nil {
			return nil, fmt.Errorf("proxy: %w", err)
		}
		l.hop = hw
	}
	if cfg.Batch && cfg.Role == RoleUA {
		if cfg.PassThrough {
			return nil, errors.New("proxy: batch mode requires the enclave path")
		}
		if l.shuffler == nil {
			return nil, errors.New("proxy: batch mode requires ShuffleSize > 1")
		}
		l.jobs = eventloop.NewJobPool(cfg.Workers)
		l.shuffler.SetBatchSink(func(vals []any) {
			// Runs under the shuffler lock: end the epoch's enclave
			// crossings and hand the epoch to the pool. If the pool is
			// already closed, fail the epoch's messages fast — the
			// shuffler is closing too.
			l.closeCrossings()
			if !l.jobs.Submit(func() { l.runBatch(vals) }) {
				failBatchItems(vals, ErrShufflerClosed)
			}
		})
	}
	return l, nil
}

// defaultWorkers sizes the data-processing pool when Config.Workers is
// unset: one thread per core on the paper's 2-core nodes.
const defaultWorkers = 2

// defaultClientTimeout bounds next-hop requests when no HTTP client is
// injected.
const defaultClientTimeout = 30 * time.Second

// Close releases buffered messages, drains in-flight batch epochs, and
// flushes the final partial trace epoch (shutdown path). The shuffler
// closes first — its final flush still submits to the job pool — and the
// pool's Close runs every accepted epoch to completion, so no admitted
// request is left without a response.
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
	l.jobs.Close()
	l.hop.Close()
	l.tracer.Load().AdvanceEpoch()
}

// Hopwire exposes the layer's frame transport client (nil when disabled),
// for metrics and tests.
func (l *Layer) Hopwire() *hopwire.Client { return l.hop }

// Stats returns served and failed request counts.
func (l *Layer) Stats() (served, failed uint64) {
	return l.served.Load(), l.failed.Load()
}

// Shuffler exposes the layer's shuffler (nil when disabled), for tests and
// operational metrics.
func (l *Layer) Shuffler() *Shuffler { return l.shuffler }

// RetryStats returns how many forward retries ran and how many requests
// failed fast on an open next-hop breaker.
func (l *Layer) RetryStats() (retries, failFast uint64) {
	return l.retries.Load(), l.failFast.Load()
}

// BatchStats reports the epoch-batched pipeline's counters: epochs
// forwarded as one envelope, messages inside them, whole-envelope retry
// sends, sub-envelope sends after splitting, messages degraded to
// per-message forwarding, and batch ECALLs that fell back to per-message
// crossings on EPC exhaustion.
type BatchStats struct {
	Batches      uint64
	Messages     uint64
	Retries      uint64
	Splits       uint64
	Degraded     uint64
	EPCFallbacks uint64
}

// BatchStats returns the layer's batch-pipeline counters (all zero when
// batch mode is off).
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

// RecCache exposes the layer's recommendation cache (nil when disabled),
// for rotation flush hooks, audit checks, and metrics.
func (l *Layer) RecCache() *reccache.Cache { return l.cfg.RecCache }

// ServeHTTP implements the layer's REST endpoint.
func (l *Layer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	isApp := r.Method == http.MethodPost &&
		(r.URL.Path == message.EventsPath || r.URL.Path == message.QueriesPath ||
			(r.URL.Path == message.BatchPath && l.cfg.Role == RoleIA && !l.cfg.PassThrough))
	if isApp {
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
	}
	switch {
	case r.Method == http.MethodPost && (r.URL.Path == message.EventsPath || r.URL.Path == message.QueriesPath):
		l.handle(w, r)
	case r.Method == http.MethodPost && r.URL.Path == message.BatchPath &&
		l.cfg.Role == RoleIA && !l.cfg.PassThrough:
		l.handleBatch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == message.HealthPath:
		fmt.Fprint(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

func (l *Layer) handle(w http.ResponseWriter, r *http.Request) {
	// The serve span wraps the whole hop, success or failure: it is the
	// end-to-end histogram the latency SLO evaluates, and — like every
	// stage — it surfaces in traces only as an epoch-batched record.
	span := l.tracer.Load().Start(StageServe)
	start := time.Now()
	defer func() {
		l.observeStage(StageServe, start)
		span.End()
	}()

	body, err := readBody(r.Body, maxBody)
	if err != nil {
		if errors.Is(err, ErrBodyTooLarge) {
			l.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		l.fail(w, http.StatusBadRequest, "read request")
		return
	}
	isGet := r.URL.Path == message.QueriesPath

	var status int
	var respBody []byte
	if l.cfg.Role == RoleUA {
		status, respBody, err = l.handleUA(r.Context(), r.URL.Path, body, isGet)
	} else {
		status, respBody, err = l.handleIA(r.Context(), r.URL.Path, body, isGet)
	}
	if err != nil {
		l.fail(w, statusFor(err), failText(err))
		l.logWarn("request failed",
			"layer", l.roleLabel(), "path", r.URL.Path, "class", failClass(err))
		return
	}

	l.served.Add(1)
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

// handleUA implements the UA node pipeline: pseudonymize the user
// identifier in the enclave, shuffle the request batch, forward to the IA
// layer, and relay the (already client-encrypted) response untouched.
func (l *Layer) handleUA(ctx context.Context, path string, body []byte, isGet bool) (int, []byte, error) {
	if l.jobs != nil {
		return l.handleUABatch(ctx, body, isGet)
	}
	out := body
	if !l.cfg.PassThrough {
		ecall := ecallUAPost
		if isGet {
			ecall = ecallUAGet
		}
		var err error
		out, err = l.process(StageEcallDecrypt, ecall, out)
		if err != nil {
			return 0, nil, err
		}
	}
	// Request shuffling happens between the UA and IA layers (§4.3).
	if err := l.shuffleWait(ctx); err != nil {
		return 0, nil, err
	}
	return l.forwardResilient(ctx, path, out, l.uaRetryPrep)
}

// uaRetryPrep re-establishes a retry's unlinkability before it leaves the
// UA again: the hop envelope is re-encrypted with a fresh IV (so the
// retried bytes are unrelated to the failed attempt's), and the request
// re-enters the shuffler so it departs inside a fresh batch instead of
// alone right after the failure it repeats.
func (l *Layer) uaRetryPrep(ctx context.Context, body []byte) ([]byte, error) {
	if !l.cfg.PassThrough && isLinkWrapped(body) {
		out, err := l.process(StageEcallRewrap, ecallLinkRewrap, body)
		if err != nil {
			return nil, err
		}
		body = out
	}
	if err := l.shuffleWait(ctx); err != nil {
		return nil, err
	}
	return body, nil
}

// isLinkWrapped is the host-side envelope probe. The *presence* of an
// envelope is plain wire format — every message on the link has one when a
// link key is deployed — only its content is protected.
func isLinkWrapped(body []byte) bool {
	var env linkEnvelope
	return json.Unmarshal(body, &env) == nil && env.Link != ""
}

// shuffleWait blocks in the shuffler, timing the buffered delay as the
// shuffle_wait stage.
func (l *Layer) shuffleWait(ctx context.Context) error {
	if l.shuffler == nil {
		return nil
	}
	span := l.tracer.Load().Start(StageShuffleWait)
	start := time.Now()
	_, err := l.shuffler.Wait(ctx)
	l.observeStage(StageShuffleWait, start)
	span.End()
	return err
}

// handleIA implements the IA node pipeline: pseudonymize the item (post)
// or park the temporary key (get) in the enclave, forward to the LRS,
// transform the response in the enclave, and shuffle the response batch
// before it travels back toward the UA layer.
func (l *Layer) handleIA(ctx context.Context, path string, body []byte, isGet bool) (int, []byte, error) {
	if isGet && l.cfg.RecCache != nil && !l.cfg.PassThrough {
		return l.handleIAGetCached(ctx, path, body)
	}
	out := body
	var handle string
	if !l.cfg.PassThrough {
		if isGet {
			handle = strconv.FormatUint(l.nextHandle.Add(1), 36)
			framed, err := message.Marshal(iaGetCall{Handle: handle, Body: body})
			if err != nil {
				return 0, nil, err
			}
			out, err = l.process(StageEcallDecrypt, ecallIAGet, framed)
			if err != nil {
				return 0, nil, err
			}
		} else {
			var err error
			out, err = l.process(StageEcallDecrypt, ecallIAPost, out)
			if err != nil {
				return 0, nil, err
			}
		}
	}

	// IA→LRS retries need no rewrap/reshuffle prep: the request leaving
	// the IA is the pseudonymized cleartext the LRS expects, and the
	// shuffle the IA owns is on the *response* path below.
	status, lrsBody, err := l.forwardLRS(ctx, path, out)
	if err != nil {
		l.dropHandle(handle)
		return 0, nil, err
	}

	respBody := lrsBody
	if !l.cfg.PassThrough && isGet {
		if status == http.StatusOK {
			framed, err := message.Marshal(iaGetCall{Handle: handle, Body: lrsBody})
			if err != nil {
				l.dropHandle(handle)
				return 0, nil, err
			}
			respBody, err = l.process(StageEcallReencrypt, ecallIAGetResp, framed)
			if err != nil {
				// The re-encrypt ECALL consumes the parked key with
				// KV.Take only on success; clear it here or every
				// malformed LRS response leaks one EPC entry.
				l.dropHandle(handle)
				return 0, nil, err
			}
		} else {
			l.dropHandle(handle)
		}
	}

	// Response shuffling happens between the IA and UA layers (§4.3).
	if err := l.shuffleWait(ctx); err != nil {
		return 0, nil, err
	}
	return status, respBody, nil
}

// fetchResult carries a coalesced LRS round trip's outcome between the
// leader that ran it and the followers sharing it.
type fetchResult struct {
	status int
	body   []byte
}

// handleIAGetCached is the IA get pipeline with the recommendation cache
// enabled. The ia/get ECALL decides hit or miss behind the enclave
// boundary; a hit comes back already sealed under the client's k_u and
// skips the LRS hop, a miss returns the LRS request plus the coalescing
// key so concurrent misses for the same pseudonym share one fetch. Both
// outcomes re-enter the response shuffler, so a network observer sees
// hits and misses leave inside the same epoch batches — the 1/S bound is
// untouched, and the only externally visible difference is epoch-level
// throughput.
func (l *Layer) handleIAGetCached(ctx context.Context, path string, body []byte) (int, []byte, error) {
	handle := strconv.FormatUint(l.nextHandle.Add(1), 36)
	framed, err := message.Marshal(iaGetCall{Handle: handle, Body: body})
	if err != nil {
		return 0, nil, err
	}
	out, err := l.process(StageEcallDecrypt, ecallIAGet, framed)
	if err != nil {
		return 0, nil, err
	}
	var res iaGetResult
	if err := message.Unmarshal(out, &res); err != nil {
		l.dropHandle(handle)
		return 0, nil, fmt.Errorf("%w: %v", errEnclave, err)
	}

	if res.Hit {
		if err := l.shuffleWait(ctx); err != nil {
			return 0, nil, err
		}
		return http.StatusOK, res.Body, nil
	}

	v, shared, err := l.cfg.RecCache.Do(ctx, res.Key, func() (any, error) {
		status, lrsBody, err := l.forwardLRS(ctx, path, res.Body)
		if err != nil {
			return nil, err
		}
		return fetchResult{status, lrsBody}, nil
	})
	if err != nil && shared && ctx.Err() == nil {
		// The leader's failure was under *its* deadline and breaker
		// draw; this follower is still alive, so give it one fetch of
		// its own rather than inheriting the error.
		var status int
		var lrsBody []byte
		if status, lrsBody, err = l.forwardLRS(ctx, path, res.Body); err == nil {
			v = fetchResult{status, lrsBody}
		}
	}
	if err != nil {
		l.dropHandle(handle)
		return 0, nil, err
	}
	fr := v.(fetchResult)
	if fr.status != http.StatusOK {
		l.dropHandle(handle)
		if err := l.shuffleWait(ctx); err != nil {
			return 0, nil, err
		}
		return fr.status, fr.body, nil
	}

	// Only the coalescing leader fills the cache; followers just seal
	// the shared body under their own parked k_u.
	framed, err = message.Marshal(iaGetCall{Handle: handle, Body: fr.body, Fill: !shared})
	if err != nil {
		l.dropHandle(handle)
		return 0, nil, err
	}
	respBody, err := l.process(StageEcallReencrypt, ecallIAGetResp, framed)
	if err != nil {
		l.dropHandle(handle)
		return 0, nil, err
	}
	if err := l.shuffleWait(ctx); err != nil {
		return 0, nil, err
	}
	return fr.status, respBody, nil
}

// dropHandle clears a parked temporary key when the request it belongs to
// dies before its response transformation, so the EPC store cannot leak.
func (l *Layer) dropHandle(handle string) {
	if handle != "" && l.cfg.Enclave != nil {
		l.cfg.Enclave.KV().Delete(handle)
	}
}

// process runs an ECALL under the data-processing worker pool, modelling
// the fixed pool of in-enclave threads consuming the shared queue (§5).
// The stage measurement covers the wait for a free worker plus the ECALL
// itself — the paper's in-enclave queueing + crypto cost; the ECALL-only
// duration is measured separately by the enclave's own observer.
func (l *Layer) process(stage, ecall string, in []byte) ([]byte, error) {
	return l.onWorker(stage, func() ([]byte, error) {
		return l.cfg.Enclave.Ecall(ecall, in)
	})
}

// onWorker runs one message's enclave work on a data-processing worker,
// observed as the given stage.
func (l *Layer) onWorker(stage string, work func() ([]byte, error)) ([]byte, error) {
	span := l.tracer.Load().Start(stage)
	start := time.Now()
	defer func() {
		l.observeStage(stage, start)
		span.End()
	}()
	l.workers <- struct{}{}
	defer func() { <-l.workers }()
	return work()
}

// forwardLRS is the IA→LRS hop: forwardResilient under the layer's
// fan-out semaphore, so a demultiplexed epoch (or a burst of per-message
// misses) holds at most LRSConcurrency requests against the legacy API
// at once instead of one goroutine each, unbounded.
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
// the attempt before it leaves again (UA layer only; nil for the IA→LRS
// hop). The breaker is fed transport outcomes only — an HTTP error status
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
// status and body. The whole round trip is the forward stage. With
// hopwire enabled the exchange rides a pooled frame connection; only a
// peer that provably does not speak the protocol (ErrUnsupported, latched
// with a cooldown) drops the hop back to HTTP — transport faults surface
// to the breaker and retry ladder exactly like HTTP faults.
func (l *Layer) forward(ctx context.Context, path string, body []byte) (int, []byte, error) {
	span := l.tracer.Load().Start(StageForward)
	start := time.Now()
	defer func() {
		l.observeStage(StageForward, start)
		span.End()
	}()
	if l.hop != nil {
		status, respBody, err := l.hop.RoundTrip(ctx, path, body)
		if err == nil {
			return status, respBody, nil
		}
		if !errors.Is(err, hopwire.ErrUnsupported) {
			return 0, nil, fmt.Errorf("proxy: forward to %s: %w", l.cfg.Next, err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.cfg.Next+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("proxy: build forward request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.cfg.HTTPClient.Do(req)
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

// maxBatchBody bounds a whole batch envelope: one epoch of up to
// table-size messages plus framing.
const maxBatchBody = 8 << 20
