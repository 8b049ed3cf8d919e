package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/lrs/cco"
	"pprox/internal/lrs/engine"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/sim"
	"pprox/internal/stats"
	"pprox/internal/workload"
)

// lrs.go is the lrs10x scenario: the LRS rebuilt as a sharded, WAL-backed
// event log with incremental CCO maintenance, driven at 10× the paper's
// MovieLens cardinalities (§8: 7,288 users × 17,141 movies becomes 72,880
// × 171,410 — the pseudonym space a rotation-scale re-pseudonymization has
// to traverse). The event count is capped well below the full 5.6M-rating
// 10× stream so the scenario fits CI; cardinality, not volume, is what the
// sharded store and incremental trainer are being sized against. Gates:
//
//   - freshness economics: the mean per-event incremental apply must be
//     ≥ lrsMinSpeedup× cheaper than one full TrainNow over the same log —
//     the number that justifies folding events in online instead of
//     re-running the batch job per epoch;
//   - exactness: the incrementally maintained model must recommend
//     byte-for-byte what the batch-trained twin does after Refresh;
//   - durability: a WAL shard torn mid-append (a crash's signature)
//     must replay to the twin's exact state;
//   - the full private path (UA → shuffle → IA → sharded LRS) must carry
//     a post+get workload with a clean privacy-SLO audit.
//
// With -out it emits BENCH_lrs10x.json carrying the speedup alongside
// goodput/latency, which `pprox-bench compare -min-incremental-speedup`
// gates in the CI perf-trajectory job.

// lrsMinSpeedup is the per-event apply vs full-train advantage gate.
const lrsMinSpeedup = 10

// lrsBenchShards is the consistent-hash ring width the scenario runs.
const lrsBenchShards = 8

// lrs10xTrainer mirrors a production Universal Recommender downsampling
// config at a scale where per-event window evictions and correlator caps
// are constantly exercised.
func lrs10xTrainer() cco.Config {
	return cco.Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
}

func runLRS10xScenario(opts sim.RunOptions) error {
	fmt.Println("\n=== lrs10x — sharded WAL-backed LRS, incremental CCO, 10× MovieLens cardinality ===")

	params := workload.ScaledMovieLensParams(10)
	events := 60000
	epochs, trials := 20, 3
	if opts.Repetitions <= 1 { // -quick
		events = 20000
		epochs, trials = 10, 2
	}
	params.Events = events
	data := workload.Generate(params)
	fmt.Printf("workload: %d users × %d items, %d events (volume capped for CI; the full 10× stream is %d)\n",
		params.Users, params.Items, events, 10*workload.MovieLensEvents)

	walDir, err := os.MkdirTemp("", "pprox-lrs10x-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	incCfg := engine.DefaultConfig()
	incCfg.Trainer = lrs10xTrainer()
	incCfg.Shards = lrsBenchShards
	incCfg.WALDir = walDir
	incCfg.Incremental = true
	inc, err := engine.Open(incCfg)
	if err != nil {
		return fmt.Errorf("lrs10x: open incremental engine: %w", err)
	}
	batchCfg := incCfg
	batchCfg.WALDir = ""
	batchCfg.Incremental = false
	batch, err := engine.Open(batchCfg)
	if err != nil {
		return fmt.Errorf("lrs10x: open batch twin: %w", err)
	}
	defer batch.Close()

	for _, ev := range data.Events {
		inc.InsertEvent(ev.User, ev.Item, ev.Rating)
		batch.InsertEvent(ev.User, ev.Item, ev.Rating)
	}
	if got := inc.EventsApplied(); got != uint64(events) {
		return fmt.Errorf("lrs10x: %d of %d events applied incrementally", got, events)
	}
	meanApply := inc.ApplySeconds() / float64(events)
	if err := batch.TrainNow(); err != nil {
		return fmt.Errorf("lrs10x: batch train: %w", err)
	}
	trainSec := batch.TrainSeconds()
	speedup := trainSec / meanApply
	fmt.Printf("freshness economics: mean per-event apply %v, one full TrainNow %v — apply is ×%.0f cheaper\n",
		time.Duration(meanApply*float64(time.Second)).Round(time.Microsecond),
		time.Duration(trainSec*float64(time.Second)).Round(time.Millisecond), speedup)
	if speedup < lrsMinSpeedup {
		return fmt.Errorf("lrs10x: per-event apply only ×%.1f cheaper than a full train, want ≥ ×%d",
			speedup, lrsMinSpeedup)
	}

	// Exactness: the online model, after re-scoring rows whose counts
	// never changed (Refresh), recommends exactly what the batch job
	// computes from the same log.
	inc.Refresh()
	users := data.DistinctUsers()
	stride := len(users)/200 + 1
	checked := 0
	for i := 0; i < len(users); i += stride {
		u := users[i]
		if got, want := inc.Recommend(u, 10), batch.Recommend(u, 10); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("lrs10x: user %s: incremental %v, batch %v", u, got, want)
		}
		checked++
	}
	fmt.Printf("exactness: incremental model == batch model for %d sampled users\n", checked)

	// Durability at scale: tear one shard's WAL tail the way a crash
	// mid-append does, reopen, and require the replayed engine to match
	// the uncrashed twin exactly.
	if err := inc.Close(); err != nil {
		return fmt.Errorf("lrs10x: close before crash: %w", err)
	}
	torn := filepath.Join(walDir, "shard-003.wal")
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("lrs10x: tear WAL: %w", err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		f.Close()
		return fmt.Errorf("lrs10x: tear WAL: %w", err)
	}
	f.Close()
	reopened, err := engine.Open(incCfg)
	if err != nil {
		return fmt.Errorf("lrs10x: reopen after crash: %w", err)
	}
	defer reopened.Close()
	if reopened.EventCount() != events {
		return fmt.Errorf("lrs10x: replay recovered %d of %d events", reopened.EventCount(), events)
	}
	for i := 0; i < len(users); i += 4 * stride {
		u := users[i]
		if got, want := reopened.Recommend(u, 10), batch.Recommend(u, 10); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("lrs10x: post-crash user %s: %v, twin %v", u, got, want)
		}
	}
	fmt.Printf("durability: torn WAL tail truncated on reopen, all %d events replayed, model matches the twin\n", events)

	// Full private path: the sharded incremental engine behind the real
	// UA → shuffle → IA pipeline, posts and gets in full-epoch lock step
	// so the privacy auditor sees complete anonymity sets.
	const s = 16
	names := make([]string, 0, trials)
	var best lrsTrial
	var rps []float64
	for trial := 0; trial < trials; trial++ {
		tr, err := driveLRS10xTrial(data, s, epochs)
		if err != nil {
			return fmt.Errorf("lrs10x trial %d: %w", trial, err)
		}
		rps = append(rps, tr.throughput())
		if best.sent == 0 || tr.throughput() > best.throughput() {
			best = tr
		}
		if tr.failed > 0 {
			return fmt.Errorf("lrs10x: trial %d had %d failed requests", trial, tr.failed)
		}
		if tr.state != audit.StateOK {
			return fmt.Errorf("lrs10x: trial %d privacy-SLO state is %v, want ok", trial, tr.state)
		}
		names = append(names, fmt.Sprintf("%.0f", tr.throughput()))
	}
	fmt.Printf("full path: %d posts+gets per trial, best %6.0f req/s (trials: %v req/s), audit ok  %s\n",
		best.sent, best.throughput(), names, best.lat.Candlestick())

	if path := benchOutPath("lrs10x"); path != "" {
		rep := newBenchReport("lrs10x")
		rep.Config["users"] = params.Users
		rep.Config["items"] = params.Items
		rep.Config["events"] = events
		rep.Config["shards"] = lrsBenchShards
		rep.Config["shuffle_s"] = s
		rep.Config["epochs"] = epochs
		rep.Config["trials"] = trials
		rep.Config["incremental"] = true
		rep.IncrementalSpeedup = &speedup
		rep.GoodputTrials = newTrialStats(rps)
		rep.GoodputRPS = rep.GoodputTrials.BestRPS
		rep.Latency = latencyQuantiles(best.lat)
		rep.Stages = stageQuantiles(best.stages)
		rep.AuditState = best.state.String()
		rep.PerfSLOState = best.perfState.String()
		if err := rep.write(path); err != nil {
			return err
		}
	}
	return nil
}

// lrsTrial is one measured drive of the full-path slice.
type lrsTrial struct {
	lat       stats.Distribution
	sent      int
	failed    int
	elapsed   time.Duration
	state     audit.State
	perfState perfslo.State
	stages    map[string]map[string]*stageDist
}

func (t lrsTrial) throughput() float64 {
	return float64(t.sent) / t.elapsed.Seconds()
}

// driveLRS10xTrial deploys the shipped proxy pipeline over a sharded
// incremental LRS and pushes epochs of S concurrent posts, then epochs of
// S concurrent gets for the same users, through it.
func driveLRS10xTrial(data *workload.Dataset, s, epochs int) (lrsTrial, error) {
	engCfg := engine.DefaultConfig()
	engCfg.Trainer = lrs10xTrainer()
	spec := cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		Shuffle: s, ShuffleTimeout: 200 * time.Millisecond,
		LRSFrontends:   1,
		EngineConfig:   &engCfg,
		LRSShards:      4,
		LRSIncremental: true,
		Audit:          &audit.Config{},
		Hopwire:        true,
		PerfSLO:        &perfslo.Config{},
		// Looser than benchPerfThresholds: the forward stage carries a
		// real engine doing WAL-ordered inserts and online CCO folds, not
		// a fixed-delay stub.
		PerfThresholds: map[string]float64{
			proxy.StageServe:        10,
			proxy.StageShuffleWait:  5,
			proxy.StageEcallDecrypt: 2,
			proxy.StageForward:      10,
		},
		EcallCost: 100 * time.Microsecond,
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		return lrsTrial{}, fmt.Errorf("deploy: %w", err)
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	rec := stats.NewRecorder(2 * epochs * s)
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
					ev := data.Events[(b*s+i)%len(data.Events)]
					t0 := time.Now()
					if err := cl.Post(ctx, ev.User, ev.Item, ev.Rating); err != nil {
						failed.Add(1)
						return
					}
					rec.Observe(time.Since(t0))
				}(b, i)
			}
			wg.Wait()
		}
		for b := 0; b < epochs; b++ {
			var wg sync.WaitGroup
			for i := 0; i < s; i++ {
				wg.Add(1)
				go func(b, i int) {
					defer wg.Done()
					ev := data.Events[(b*s+i)%len(data.Events)]
					t0 := time.Now()
					if _, err := cl.Get(ctx, ev.User); err != nil {
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
		return lrsTrial{}, err
	}
	return lrsTrial{
		lat: rec.Snapshot(), sent: 2 * epochs * s,
		failed: int(failed.Load()), elapsed: elapsed,
		state:     d.Auditor.State(),
		perfState: d.PerfSLO.State(),
		stages:    stageBreakdown(before, after),
	}, nil
}
