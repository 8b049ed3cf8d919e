package proxy

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"pprox/internal/hopwire"
	"pprox/internal/message"
	"pprox/internal/metrics"
)

// Pipeline stage names, the values of the `stage` label on
// pprox_proxy_stage_seconds and the keys of EpochRecord.Stages. They
// follow the paper's cost attribution (§7.2/§8): enclave cryptography,
// shuffling delay, and network hops.
const (
	// StageEcallDecrypt is the request-path ECALL (pseudonymization /
	// decryption), including the wait for a data-processing worker —
	// the paper's in-enclave thread-pool queueing (§5). One observation
	// per message on the UA, which processes each request as it arrives.
	// The IA's /batch route decrypts a demultiplexed epoch in one crossing
	// per kind and observes that crossing once.
	StageEcallDecrypt = "ecall_decrypt"
	// StageShuffleWait is the time a message spends buffered in the
	// shuffler before its batch is released (§4.3).
	StageShuffleWait = "shuffle_wait"
	// StageForward is the next-hop round trip (IA balancer for UA
	// instances, LRS for IA instances).
	StageForward = "forward"
	// StageEcallRewrap is the UA retry-path crossing re-randomizing the
	// hop envelopes before a retried frame leaves again; it only appears
	// when retries run against a link-key deployment.
	StageEcallRewrap = "ecall_rewrap"
	// StageEcallReencrypt is the IA response-path ECALL that
	// de-pseudonymizes the list and re-encrypts it under k_u.
	StageEcallReencrypt = "ecall_reencrypt"
	// StageServe is the end-to-end request envelope at this hop: ingress
	// to response written, covering every inner stage plus handler
	// overhead — per client request on a UA, per epoch frame on an IA.
	// It is the histogram the end-to-end latency SLO evaluates.
	StageServe = "serve"
)

// Stages lists every stage label in pipeline order, for consumers that
// render breakdown tables. StageServe leads: it is the envelope the
// remaining stages decompose.
var Stages = []string{StageServe, StageEcallDecrypt, StageShuffleWait, StageForward, StageEcallRewrap, StageEcallReencrypt}

// EcallDecryptObjective derives the default latency objective for the
// per-message ecall_decrypt stage from what the stage covers: the wait
// for one of the layer's data-processing workers plus one handler run.
// The worst regular case is a message that arrives together with the rest
// of its epoch and is served last, behind ⌈S/workers⌉ handler runs; each is
// budgeted 2.5 ms (an RSA-2048 OAEP decryption, the slower of the two
// forms a field may arrive in, takes 1–2 ms on the hosts this runs on)
// on top of ten modeled transitions, and nothing below
// 25 ms is worth paging on. It flags a sustained regression, not a slow
// request.
func EcallDecryptObjective(shuffle int, ecallCost time.Duration) time.Duration {
	if shuffle < 1 {
		shuffle = 1
	}
	queue := time.Duration((shuffle+workers-1)/workers) * 2500 * time.Microsecond
	if t := 10*ecallCost + queue; t > 25*time.Millisecond {
		return t
	}
	return 25 * time.Millisecond
}

// pendingDepthBuckets bound occupancy histograms (table depths, batch
// sizes) rather than latencies.
var pendingDepthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// instruments holds the layer's cached metric children so the hot path
// never takes a registry or family lock.
type instruments struct {
	node           string
	stage          map[string]*metrics.Histogram
	ecall          map[string]*metrics.Histogram
	pendingDepth   *metrics.Histogram
	batchSize      *metrics.Histogram
	ecallBatchSize *metrics.Histogram
	// recorded holds each stage's bucket counts as of the last epoch
	// record; only record touches it, under the layer's rec lock.
	recorded map[string][]uint64
}

func (l *Layer) roleLabel() string { return strings.ToLower(l.cfg.Role.String()) }

// RegisterMetrics exposes the layer's instruments on the registry, all
// labeled {layer,node} so any number of instances share one registry:
//
//   - pprox_proxy_requests_{served,failed}_total counters,
//   - pprox_proxy_shuffle_{flushes,shed}_total counters (the values
//     Shuffler.Stats computes) and the pprox_proxy_shuffle_pending gauge
//     (Shuffler.Pending),
//   - pprox_enclave_epc_pages_used gauge and pprox_enclave_ecalls_total
//     counter for the enclave runtime,
//   - the per-stage latency histogram family
//     pprox_proxy_stage_seconds{layer,node,stage},
//   - pprox_enclave_ecall_seconds{layer,node,ecall} per-entry-point
//     ECALL durations,
//   - pprox_proxy_pending_table_depth and
//     pprox_proxy_shuffle_batch_size occupancy histograms.
//
// node names this instance (e.g. "ua-0"); empty defaults to the role.
// Call before serving traffic: registration swaps the instrument set in
// atomically, but until it runs the pipeline is simply unobserved.
func (l *Layer) RegisterMetrics(r *metrics.Registry, node string) {
	role := l.roleLabel()
	if node == "" {
		node = role
	}

	r.CounterFuncVec("pprox_proxy_requests_served_total",
		"Requests completed successfully per layer instance.", "layer", "node").
		With(func() float64 {
			served, _ := l.Stats()
			return float64(served)
		}, role, node)
	r.CounterFuncVec("pprox_proxy_requests_failed_total",
		"Requests rejected or failed per layer instance.", "layer", "node").
		With(func() float64 {
			_, failed := l.Stats()
			return float64(failed)
		}, role, node)
	if l.shuffler != nil {
		r.CounterFuncVec("pprox_proxy_shuffle_flushes_total",
			"Shuffle batches released (threshold or timer).", "layer", "node").
			With(func() float64 {
				flushes, _ := l.shuffler.Stats()
				return float64(flushes)
			}, role, node)
		r.CounterFuncVec("pprox_proxy_shuffle_shed_total",
			"Requests shed because the pending table T was full.", "layer", "node").
			With(func() float64 {
				_, sheds := l.shuffler.Stats()
				return float64(sheds)
			}, role, node)
		r.GaugeVec("pprox_proxy_shuffle_pending",
			"Messages currently buffered in the shuffler.", "layer", "node").
			With(func() float64 {
				return float64(l.shuffler.Pending())
			}, role, node)
	}
	if l.cfg.Enclave != nil {
		r.GaugeVec("pprox_enclave_epc_pages_used",
			"Enclave Page Cache pages in use.", "layer", "node").
			With(func() float64 {
				used, _ := l.cfg.Enclave.EPCUsage()
				return float64(used)
			}, role, node)
		r.CounterFuncVec("pprox_enclave_ecalls_total",
			"ECALLs served by this layer's enclave.", "layer", "node").
			With(func() float64 {
				return float64(l.cfg.Enclave.EcallCount())
			}, role, node)
		r.CounterFuncVec("pprox_enclave_ecall_messages_total",
			"Messages processed inside enclave crossings (batched ECALLs count every message; the crossings/message ratio against pprox_enclave_ecalls_total is the batching amortization).", "layer", "node").
			With(func() float64 {
				return float64(l.cfg.Enclave.MessageCount())
			}, role, node)
	}

	inst := &instruments{
		node:     node,
		stage:    make(map[string]*metrics.Histogram, len(Stages)),
		recorded: make(map[string][]uint64, len(Stages)),
		ecall:    make(map[string]*metrics.Histogram),
	}
	stageVec := r.HistogramVec("pprox_proxy_stage_seconds",
		"Time spent per proxy pipeline stage.", nil, "layer", "node", "stage")
	for _, s := range Stages {
		inst.stage[s] = stageVec.With(role, node, s)
		inst.recorded[s] = inst.stage[s].Buckets(nil)
	}
	ecallVec := r.HistogramVec("pprox_enclave_ecall_seconds",
		"ECALL handler duration per entry point.", nil, "layer", "node", "ecall")
	for _, name := range []string{ecallUAPost, ecallUAGet, ecallIAPost, ecallIAGet, ecallIAGetResp, ecallLinkRewrap} {
		inst.ecall[name] = ecallVec.With(role, node, name)
	}
	r.CounterFuncVec("pprox_proxy_forward_retries_total",
		"Forward attempts beyond the first (resilience retries).", "layer", "node").
		With(func() float64 {
			retries, _ := l.RetryStats()
			return float64(retries)
		}, role, node)
	r.CounterFuncVec("pprox_proxy_fail_fast_total",
		"Requests refused while the next-hop breaker was open.", "layer", "node").
		With(func() float64 {
			_, failFast := l.RetryStats()
			return float64(failFast)
		}, role, node)
	if l.breaker != nil {
		r.GaugeVec("pprox_proxy_breaker_state",
			"Next-hop circuit breaker state (0 closed, 1 open).", "layer", "node").
			With(func() float64 {
				return float64(l.breaker.State())
			}, role, node)
		r.CounterFuncVec("pprox_proxy_breaker_opens_total",
			"Times the next-hop breaker opened.", "layer", "node").
			With(func() float64 {
				opens, _ := l.breaker.Stats()
				return float64(opens)
			}, role, node)
		r.CounterFuncVec("pprox_proxy_breaker_readmissions_total",
			"Times a passed health probe re-admitted the next hop.", "layer", "node").
			With(func() float64 {
				_, readmits := l.breaker.Stats()
				return float64(readmits)
			}, role, node)
	}
	if l.shuffler != nil {
		inst.pendingDepth = r.HistogramVec("pprox_proxy_pending_table_depth",
			"Pending-table occupancy sampled at each enqueue.",
			pendingDepthBuckets, "layer", "node").With(role, node)
		inst.batchSize = r.HistogramVec("pprox_proxy_shuffle_batch_size",
			"Messages per released shuffle batch.",
			pendingDepthBuckets, "layer", "node").With(role, node)
	}
	if l.cfg.Enclave != nil {
		inst.ecallBatchSize = r.HistogramVec("pprox_enclave_ecall_batch_size",
			"Messages per batched enclave crossing.",
			pendingDepthBuckets, "layer", "node").With(role, node)
		l.cfg.Enclave.SetEcallObserver(func(name string, d time.Duration, _ error) {
			if h := inst.ecall[name]; h != nil {
				h.Observe(d.Seconds())
			}
		})
		l.cfg.Enclave.SetBatchObserver(func(name string, n int, d time.Duration) {
			if inst.ecallBatchSize != nil {
				inst.ecallBatchSize.Observe(float64(n))
			}
		})
	}
	l.registerBatchMetrics(r, role, node)
	l.obs.Store(inst)
	l.rewireShuffler()
}

// registerBatchMetrics exposes the request pipeline's families: per-epoch
// forwards and the degradation ladder (UA epochs and IA /batch
// demultiplexing both feed the counters), plus the bounded IA→LRS fan-out
// gauge when a semaphore is installed and the frame-link counters when
// the layer holds a hop client (a UA).
func (l *Layer) registerBatchMetrics(r *metrics.Registry, role, node string) {
	batch := func(name, help string, read func(BatchStats) uint64) {
		r.CounterFuncVec(name, help, "layer", "node").
			With(func() float64 { return float64(read(l.BatchStats())) }, role, node)
	}
	batch("pprox_proxy_batch_forwards_total",
		"Batch frames processed (UA: epochs forwarded; IA: frames demultiplexed).",
		func(s BatchStats) uint64 { return s.Batches })
	batch("pprox_proxy_batch_messages_total",
		"Messages carried inside batch frames.",
		func(s BatchStats) uint64 { return s.Messages })
	batch("pprox_proxy_batch_retries_total",
		"Whole-frame batch sends beyond the first attempt.",
		func(s BatchStats) uint64 { return s.Retries })
	batch("pprox_proxy_batch_splits_total",
		"Sub-frame sends after splitting a failed batch.",
		func(s BatchStats) uint64 { return s.Splits })
	batch("pprox_proxy_batch_degraded_total",
		"Messages degraded to a one-entry frame under their own context.",
		func(s BatchStats) uint64 { return s.Degraded })
	batch("pprox_proxy_batch_epc_fallbacks_total",
		"Batched crossings that fell back to per-message ECALLs (EPC pressure).",
		func(s BatchStats) uint64 { return s.EPCFallbacks })
	if l.lrsSem != nil {
		r.GaugeVec("pprox_lrs_inflight",
			"In-flight IA→LRS requests (bounded by -lrs-concurrency).", "layer", "node").
			With(func() float64 { return float64(l.LRSInFlight()) }, role, node)
	}
	if l.hop == nil {
		return
	}
	counter := func(name, help string, read func(hopwire.Stats) uint64) {
		r.CounterFuncVec(name, help, "layer", "node").
			With(func() float64 { return float64(read(l.hop.Stats())) }, role, node)
	}
	counter("pprox_hopwire_exchanges_total",
		"Frame exchanges completed on the binary hop transport.",
		func(s hopwire.Stats) uint64 { return s.Exchanges })
	counter("pprox_hopwire_dials_total",
		"Hopwire connections established.",
		func(s hopwire.Stats) uint64 { return s.Dials })
	counter("pprox_hopwire_conn_reuses_total",
		"Frame exchanges that rode a pooled connection.",
		func(s hopwire.Stats) uint64 { return s.Reuses })
}

// EpochRecord is what a layer reports at each epoch it releases: how its
// stage histograms grew since the previous record, as bucket counts. It
// holds no sums, no IDs and no timestamps — an epoch's record is that
// epoch's share of pprox_proxy_stage_seconds and nothing finer, so it
// grants no linking advantage the histograms do not (the adversary test
// in internal/adversary).
type EpochRecord struct {
	// Node names the instance (the node label of its metrics).
	Node string `json:"node"`
	// Epoch numbers the layer's records from 1: a shuffler flush or an
	// inbound ReleaseBatch is epoch n.
	Epoch uint64 `json:"epoch"`
	// Batch is the number of messages the epoch released, its anonymity
	// set. 0 marks a record that released no epoch (Record): it belongs
	// in the log only.
	Batch int `json:"batch"`
	// Stages maps stage → bucket upper bound (le, as /metrics renders it)
	// → observations that bucket gained since the previous record.
	// Stages and buckets that gained none are left out.
	Stages map[string]map[string]uint64 `json:"stages"`
}

// epochRecords numbers the layer's records.
type epochRecords struct {
	mu    sync.Mutex
	epoch uint64
	cur   []uint64 // scratch
}

// SetEpochObserver installs the callback receiving the layer's epoch
// records: one per shuffle epoch released, its Batch the effective
// anonymity set of the requests in it, plus the Batch-0 records Record
// writes. Calls are serialized, in epoch order. A release calls it on the
// flush path, so it must be cheap and must not call back into the
// shuffler. Nil uninstalls.
func (l *Layer) SetEpochObserver(fn func(EpochRecord)) {
	if fn == nil {
		l.epochFn.Store(nil)
	} else {
		l.epochFn.Store(&fn)
	}
}

// Record hands the epoch observer a record of the stage observations
// since the last one without releasing an epoch (Batch 0) — nothing when
// there were none. Close writes the final partial record this way, and a
// node whose layer has no shuffler calls it on the flush timer.
func (l *Layer) Record() { l.record(0) }

// record numbers the next record and hands it, with the stage histograms'
// growth since the previous one, to the observer.
func (l *Layer) record(batch int) {
	r := &l.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := EpochRecord{Node: l.roleLabel(), Batch: batch, Stages: make(map[string]map[string]uint64)}
	if obs := l.obs.Load(); obs != nil {
		rec.Node = obs.node
		for _, s := range Stages {
			h, prev := obs.stage[s], obs.recorded[s]
			r.cur = h.Buckets(r.cur[:0])
			for i, n := range r.cur {
				if n > prev[i] {
					if rec.Stages[s] == nil {
						rec.Stages[s] = make(map[string]uint64)
					}
					rec.Stages[s][h.LE(i)] = n - prev[i]
					prev[i] = n
				}
			}
		}
	}
	if batch == 0 && len(rec.Stages) == 0 {
		return
	}
	r.epoch++
	rec.Epoch = r.epoch
	if fn := l.epochFn.Load(); fn != nil {
		(*fn)(rec)
	}
}

// SetLogger installs the layer's structured logger (request failures,
// shutdown). The proxy interior only ever handles ciphertext, so log
// records here carry status classes and stage names, never payload
// content. Nil disables logging.
func (l *Layer) SetLogger(lg *slog.Logger) {
	l.logger.Store(lg)
}

// logWarn emits one warning when a logger is installed.
func (l *Layer) logWarn(msg string, args ...any) {
	if lg := l.logger.Load(); lg != nil {
		lg.Warn(msg, args...)
	}
}

// rewireShuffler points the shuffler's hooks at the current instrument
// set. Every flush closes an epoch record.
func (l *Layer) rewireShuffler() {
	if l.shuffler == nil {
		return
	}
	obs := l.obs.Load()
	var onEnqueue func(int)
	if obs != nil && obs.pendingDepth != nil {
		onEnqueue = func(depth int) { obs.pendingDepth.Observe(float64(depth)) }
	}
	l.shuffler.SetHooks(onEnqueue, func(batch int) {
		if obs != nil && obs.batchSize != nil {
			obs.batchSize.Observe(float64(batch))
		}
		l.record(batch)
	})
}

// StageHistogram returns the layer's histogram for one pipeline stage
// (a Stages value), or nil before RegisterMetrics runs. The performance
// SLO evaluator reads it directly — same lock-free instrument the
// /metrics exposition renders, no second observation path.
func (l *Layer) StageHistogram(stage string) *metrics.Histogram {
	if obs := l.obs.Load(); obs != nil {
		return obs.stage[stage]
	}
	return nil
}

// observeStage records one stage, begun at start, into its histogram.
func (l *Layer) observeStage(stage string, start time.Time) {
	l.observeStageDur(stage, time.Since(start))
}

// observeStageDur is observeStage for pre-measured durations (the batch
// pipeline measures one crossing and attributes it once).
func (l *Layer) observeStageDur(stage string, d time.Duration) {
	if obs := l.obs.Load(); obs != nil {
		if h := obs.stage[stage]; h != nil {
			h.Observe(d.Seconds())
		}
	}
}

// Health implements the /healthz self-assessment: provisioning state of
// the layer's enclave and reachability of the next hop. The next-hop
// probe is bounded by a short timeout so a dead upstream cannot wedge
// health checking.
func (l *Layer) Health() metrics.Health {
	ok := true
	checks := make(map[string]string, 2)
	switch {
	case l.cfg.PassThrough:
		checks["provisioned"] = "pass-through"
	case l.cfg.Enclave.Provisioned():
		checks["provisioned"] = "ok"
	default:
		checks["provisioned"] = "pending"
		ok = false
	}
	if l.draining.Load() {
		// Draining is reported but not a failure: the instance is
		// deliberately finishing its last epochs before retiring.
		checks["draining"] = "yes"
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.cfg.Next+message.HealthPath, nil)
	if err != nil {
		checks["next_hop"] = "bad next-hop URL"
		return metrics.Health{OK: false, Checks: checks}
	}
	resp, err := l.http.Do(req)
	if err != nil {
		checks["next_hop"] = "unreachable"
		ok = false
	} else {
		// Drain before close so the probe conn returns to the keep-alive
		// pool (same keep-alive rule as resilience.HTTPHealthProbe).
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			checks["next_hop"] = "ok"
		} else {
			checks["next_hop"] = "status " + resp.Status
			ok = false
		}
	}
	return metrics.Health{OK: ok, Checks: checks}
}
