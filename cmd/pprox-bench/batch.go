package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/sim"
	"pprox/internal/stats"
)

// batch.go measures the request pipeline (DESIGN.md §4f): an
// epoch-aligned GET workload runs against the encrypted stub stack, and
// the scenario reports throughput, end-to-end candlesticks, and the UA's
// enclave crossings per request. It doubles as the CI smoke test: a
// pipeline that fails to collapse crossings to ~1 per epoch, that fails a
// request, or that upsets the privacy auditor is a hard error. Throughput
// is printed, not gated: best-of-N closed-loop figures move with host
// noise on a small shared box. With -out it also emits the
// BENCH_batch.json snapshot (report.go) that the CI perf-trajectory job
// compares against its committed baseline; with -inject-fault it drives
// the same workload through a latency fault on the LRS to manufacture the
// p99 regression that `pprox-bench compare` must catch.

// benchPerfThresholds are the per-stage latency objectives the bench
// deployments run under. Deliberately generous: the UA observes
// ecall_decrypt per message (requests are processed as they arrive), but
// the IA's /batch route still performs a whole demultiplexed epoch's
// cryptography in one crossing per kind and observes it once — S = 32
// decryptions in one observation — and -race CI hosts stretch
// everything; the objectives exist so BENCH_*.json carries a real
// perfslo verdict, not to gate goodput (compare does that).
func benchPerfThresholds() map[string]float64 {
	return map[string]float64{
		proxy.StageServe:        5,
		proxy.StageShuffleWait:  2,
		proxy.StageEcallDecrypt: 1,
		proxy.StageForward:      2,
	}
}

// batchTrial is one measured drive of one variant.
type batchTrial struct {
	lat        stats.Distribution
	sent       int
	failed     int
	elapsed    time.Duration
	crossings  uint64 // UA enclave ECALLs (transition crossings)
	messages   uint64 // messages carried by those crossings
	state      audit.State
	perfState  perfslo.State
	ladderUsed bool
	stages     map[string]map[string]*stageDist
}

func (t batchTrial) throughput() float64 {
	return float64(t.sent) / t.elapsed.Seconds()
}

// driveBatchTrial deploys the stack, pushes epochs of S concurrent
// gets through it in lock step (every shuffle flush is a full anonymity
// set, so the crossings ratio measures the pipeline, not timer-flush
// stragglers, and the auditor sees only full epochs), and tears it down.
// A non-zero faultDelay arms a latency fault on the LRS for the whole
// trial — the knob that manufactures a measurable p99 regression.
func driveBatchTrial(s, epochs int, faultDelay time.Duration) (batchTrial, error) {
	spec := cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		Shuffle: s, ShuffleTimeout: 200 * time.Millisecond,
		UseStub: true, StubDelay: 2 * time.Millisecond,
		LRSFrontends: 1,
		Audit:        &audit.Config{},
		// The shipped transport: binary frames on persistent connections
		// for both hops (DESIGN.md §4h).
		Hopwire: true,
		PerfSLO: &perfslo.Config{},
		// See benchPerfThresholds: the default cluster objectives assume
		// per-message ECALL observations and would page on the IA's
		// healthy whole-epoch crossings.
		PerfThresholds: benchPerfThresholds(),
		// Model the SGX world switch the pipeline amortizes: ~10µs of
		// pure transition plus TLB/cache repopulation, at the
		// EPC-paging-pressure end of what the paper's SGX v1 hardware
		// pays per crossing. Without it a crossing is a free function
		// call and the timing measures only scheduler noise.
		EcallCost: 100 * time.Microsecond,
	}
	if faultDelay > 0 {
		inj := faults.NewInjector(1, faults.Rule{Kind: faults.KindLatency, Delay: faultDelay})
		defer inj.Close()
		spec.NodeMiddleware = func(addr string, h http.Handler) http.Handler {
			if strings.HasPrefix(addr, "lrs") {
				return inj.Middleware(h)
			}
			return h
		}
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		return batchTrial{}, fmt.Errorf("deploy: %w", err)
	}
	defer d.Close()

	ua := d.UALayers[0]
	ecallsBefore := ua.Enclave().EcallCount()
	msgsBefore := ua.Enclave().MessageCount()
	cl := d.Client(10 * time.Second)
	rec := stats.NewRecorder(epochs * s)
	var failed atomic.Uint64
	ctx := context.Background()
	var elapsed time.Duration
	before, after, err := bracketScrape(d, func() {
		start := time.Now()
		for b := 0; b < epochs; b++ {
			var wg sync.WaitGroup
			for i := 0; i < s; i++ {
				wg.Add(1)
				go func(b, i int) {
					defer wg.Done()
					t0 := time.Now()
					if _, err := cl.Get(ctx, fmt.Sprintf("user-%d-%d", b, i)); err != nil {
						failed.Add(1)
						return
					}
					rec.Observe(time.Since(t0))
				}(b, i)
			}
			wg.Wait()
		}
		elapsed = time.Since(start)
	})
	if err != nil {
		return batchTrial{}, err
	}

	bs := ua.BatchStats()
	return batchTrial{
		lat: rec.Snapshot(), sent: epochs * s,
		failed: int(failed.Load()), elapsed: elapsed,
		crossings: ua.Enclave().EcallCount() - ecallsBefore,
		messages:  ua.Enclave().MessageCount() - msgsBefore,
		state:     d.Auditor.State(),
		perfState: d.PerfSLO.State(),
		ladderUsed: bs.Retries > 0 || bs.Splits > 0 ||
			bs.Degraded > 0,
		stages: stageBreakdown(before, after),
	}, nil
}

func runBatchScenario(opts sim.RunOptions) error {
	fmt.Println("\n=== batch — the epoch request pipeline (stub LRS) ===")

	const s = 32
	epochs := 40
	trials := 3
	if opts.Repetitions <= 1 { // -quick
		epochs = 15
	}
	if faultDelay > 0 {
		// A faulted run exists to produce a degraded BENCH_batch.json,
		// not a capacity measurement; keep it short.
		epochs = 10
		trials = 2
		fmt.Printf("(fault injection: +%v latency on every LRS response — gates disabled)\n", faultDelay)
	}

	// Score the pipeline by its best trial: on a shared,
	// single-tenant-hostile CI box the noise sources (GC pauses,
	// scheduler stalls, a shuffle-timer flush) are one-sided — they only
	// ever slow a run down — so best-of-N recovers the clean capacity
	// while every individual run still has to pass the correctness, audit,
	// and crossing checks. All trials are kept so the JSON snapshot
	// reports the spread (min/median/max), which is what lets `compare`
	// reject a noisy run instead of gating on it.
	var best batchTrial
	var rps []float64
	for trial := 0; trial < trials; trial++ {
		tr, err := driveBatchTrial(s, epochs, faultDelay)
		if err != nil {
			return fmt.Errorf("batch scenario: %w", err)
		}
		rps = append(rps, tr.throughput())
		if best.sent == 0 || tr.throughput() > best.throughput() {
			best = tr
		}
		if faultDelay > 0 {
			continue // degraded by design; gates would only re-state that
		}
		if tr.failed > 0 {
			return fmt.Errorf("batch scenario: %d failed requests", tr.failed)
		}
		if tr.state != audit.StateOK {
			return fmt.Errorf("batch scenario: privacy-SLO state is %v, want ok", tr.state)
		}
		if tr.ladderUsed {
			return fmt.Errorf("batch scenario: healthy run descended the degradation ladder")
		}
		// The point of the epoch pipeline: the whole epoch crosses the
		// boundary together. One crossing per epoch of S for a
		// single-kind workload; allow a second (a timer-split epoch) plus
		// slack.
		if ratio, bound := float64(tr.crossings)/float64(tr.sent), 2.0/float64(s)+0.05; ratio > bound {
			return fmt.Errorf("batch scenario: %.3f UA crossings/request, want ≤ %.3f", ratio, bound)
		}
	}

	fmt.Printf("sent=%d×%d  best %6.0f req/s  ua-crossings/req=%.3f  %s\n",
		best.sent, trials, best.throughput(),
		float64(best.crossings)/float64(best.sent), best.lat.Candlestick())
	if faultDelay == 0 {
		fmt.Println("(privacy-SLO auditor: ok on every trial — the epoch leaves in permuted order)")
	}

	if path := benchOutPath("batch"); path != "" {
		allocs, err := runAllocBenchmarks()
		if err != nil {
			return fmt.Errorf("alloc benchmarks: %w", err)
		}
		rep := buildBatchReport(s, epochs, trials, rps, best, faultDelay, allocs)
		if err := rep.write(path); err != nil {
			return err
		}
	}
	return nil
}

// buildBatchReport assembles the BENCH_batch.json snapshot from the
// scenario's trials and its best one.
func buildBatchReport(s, epochs, trials int, onRPS []float64, on batchTrial, faultDelay time.Duration, allocs map[string]AllocStat) BenchReport {
	rep := newBenchReport("batch")
	rep.Config["shuffle_s"] = s
	rep.Config["epochs"] = epochs
	rep.Config["trials"] = trials
	rep.Config["hopwire"] = true
	rep.Config["ecall_cost_us"] = 100
	rep.GoodputTrials = newTrialStats(onRPS)
	rep.GoodputRPS = rep.GoodputTrials.BestRPS
	rep.Latency = latencyQuantiles(on.lat)
	rep.Stages = stageQuantiles(on.stages)
	rep.UACrossingsPerRequest = float64(on.crossings) / float64(on.sent)
	rep.AuditState = on.state.String()
	rep.PerfSLOState = on.perfState.String()
	rep.FaultInjected = faultDelay > 0
	rep.AllocsPerOp = allocs
	return rep
}
