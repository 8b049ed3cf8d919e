package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"pprox/internal/cluster"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/ppcrypto"
	"pprox/internal/stats"
)

// report.go is the durable half of the benchmark suite: each scenario can
// emit a BENCH_<scenario>.json snapshot (schema below) of everything its
// gates looked at — goodput with per-trial variance, client latency
// quantiles, per-stage histogram quantiles scraped from /metrics, enclave
// crossings per request, allocations per op for the hot cryptographic
// operations, and the audit + perfslo verdicts — attributed to the commit
// via the embedded build info. `pprox-bench compare` (compare.go) diffs
// two snapshots and exits non-zero on regression, which is what the CI
// perf-trajectory job gates on.

// benchSchema versions the BENCH_*.json layout.
const benchSchema = "pprox-bench/1"

// TrialStats is the per-trial goodput spread. Best-of-N stays the
// headline (one-sided noise: a shared CI box only ever slows a run
// down), but min/median/max let compare reject a noisy run instead of
// flapping on it.
type TrialStats struct {
	Trials    int       `json:"trials"`
	MinRPS    float64   `json:"min_rps"`
	MedianRPS float64   `json:"median_rps"`
	MaxRPS    float64   `json:"max_rps"`
	BestRPS   float64   `json:"best_rps"`
	AllRPS    []float64 `json:"all_rps"`
}

// newTrialStats summarizes per-trial goodput samples.
func newTrialStats(rps []float64) TrialStats {
	if len(rps) == 0 {
		return TrialStats{}
	}
	sorted := append([]float64(nil), rps...)
	sort.Float64s(sorted)
	return TrialStats{
		Trials:    len(sorted),
		MinRPS:    sorted[0],
		MedianRPS: sorted[len(sorted)/2],
		MaxRPS:    sorted[len(sorted)-1],
		BestRPS:   sorted[len(sorted)-1],
		AllRPS:    sorted,
	}
}

// spread is the trial noise measure: (max−min)/median, 0 for degenerate
// inputs. compare refuses to draw timing conclusions past a bound.
func (t TrialStats) spread() float64 {
	if t.MedianRPS <= 0 {
		return 0
	}
	return (t.MaxRPS - t.MinRPS) / t.MedianRPS
}

// LatencyQuantiles are client-observed end-to-end quantiles in
// milliseconds.
type LatencyQuantiles struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

func latencyQuantiles(d stats.Distribution) LatencyQuantiles {
	ms := func(v time.Duration) float64 { return float64(v) / float64(time.Millisecond) }
	return LatencyQuantiles{
		P50MS: ms(d.Quantile(0.5)),
		P95MS: ms(d.Quantile(0.95)),
		P99MS: ms(d.Quantile(0.99)),
	}
}

// StageQuantiles is one (layer, stage) row of the scraped histogram
// breakdown: histogram-resolution upper bounds, in milliseconds.
type StageQuantiles struct {
	Count  float64 `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// stageQuantiles converts a scraped breakdown into the report's nested
// layer → stage map.
func stageQuantiles(dist map[string]map[string]*stageDist) map[string]map[string]StageQuantiles {
	out := make(map[string]map[string]StageQuantiles, len(dist))
	for layer, stages := range dist {
		for stage, s := range stages {
			if s == nil || s.count == 0 {
				continue
			}
			if out[layer] == nil {
				out[layer] = make(map[string]StageQuantiles, len(stages))
			}
			ms := func(v float64) float64 {
				if v >= inf {
					return -1 // +Inf bucket: beyond the largest bound
				}
				return v * 1000
			}
			out[layer][stage] = StageQuantiles{
				Count:  s.count,
				MeanMS: s.sum / s.count * 1000,
				P50MS:  ms(s.quantile(0.5)),
				P95MS:  ms(s.quantile(0.95)),
				P99MS:  ms(s.quantile(0.99)),
			}
		}
	}
	return out
}

// AllocStat is one in-binary micro-benchmark result.
type AllocStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the BENCH_<scenario>.json schema.
type BenchReport struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	// Build identity: the commit this snapshot measured.
	GitSHA    string `json:"git_sha"`
	GoVersion string `json:"go_version"`
	Version   string `json:"version"`
	// Config echoes the scenario's knobs (S, epochs, trials, ...).
	Config map[string]any `json:"config"`
	// GoodputRPS is the headline (best-trial) goodput; GoodputTrials
	// carries the full spread.
	GoodputRPS    float64          `json:"goodput_rps"`
	GoodputTrials TrialStats       `json:"goodput_trials"`
	Latency       LatencyQuantiles `json:"latency"`
	// Stages are per-(layer, stage) histogram quantiles scraped from
	// /metrics after the measured run.
	Stages map[string]map[string]StageQuantiles `json:"stages,omitempty"`
	// UACrossingsPerRequest is the enclave-boundary amortization the
	// batch pipeline exists to minimize (host-independent).
	UACrossingsPerRequest float64 `json:"ua_crossings_per_request,omitempty"`
	// LRSGetsPerRequest / CacheHitRate are the cache scenario's
	// offload measures (host-independent).
	LRSGetsPerRequest *float64 `json:"lrs_gets_per_request,omitempty"`
	CacheHitRate      *float64 `json:"cache_hit_rate,omitempty"`
	// IncrementalSpeedup is the lrs10x scenario's freshness-economics
	// ratio: one full TrainNow divided by the mean per-event incremental
	// apply, both measured in the same process on the same log. A ratio,
	// so host speed largely divides out.
	IncrementalSpeedup *float64 `json:"incremental_speedup,omitempty"`
	// AllocsPerOp are in-binary micro-benchmarks of the hot
	// cryptographic operations (testing.Benchmark, host-independent
	// alloc counts).
	AllocsPerOp map[string]AllocStat `json:"allocs_per_op,omitempty"`
	// AuditState / PerfSLOState are the deployed SLO engines' verdicts
	// after the measured run ("ok", "warn", "violated").
	AuditState   string `json:"audit_state"`
	PerfSLOState string `json:"perfslo_state"`
	// FaultInjected marks runs driven with -inject-fault: deliberately
	// degraded, never a baseline.
	FaultInjected bool `json:"fault_injected,omitempty"`
}

// newBenchReport stamps an empty report with schema and build identity.
func newBenchReport(scenario string) BenchReport {
	bi := metrics.ReadBuildInfo()
	return BenchReport{
		Schema:    benchSchema,
		Scenario:  scenario,
		GitSHA:    bi.GitSHA,
		GoVersion: bi.GoVersion,
		Version:   bi.Version,
		Config:    make(map[string]any),
	}
}

// write emits the report as pretty JSON.
func (r BenchReport) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(bench report written to %s)\n", path)
	return nil
}

// loadBenchReport reads and schema-checks one snapshot.
func loadBenchReport(path string) (BenchReport, error) {
	var r BenchReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != benchSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, benchSchema)
	}
	return r, nil
}

// runAllocBenchmarks measures allocations per op for the hot
// cryptographic operations via testing.Benchmark — the same operations
// the root bench_test.go tracks, runnable from this binary so the
// numbers land in the JSON snapshot. Alloc counts are deterministic per
// commit, so compare can gate on them tightly even across hosts.
func runAllocBenchmarks() (map[string]AllocStat, error) {
	out := make(map[string]AllocStat, 3)

	symKey, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		return nil, err
	}
	kp, err := ppcrypto.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	block, err := ppcrypto.PadID("user-12345")
	if err != nil {
		return nil, err
	}
	items := make([]string, message.MaxRecommendations)
	for i := range items {
		items[i] = fmt.Sprintf("item-%06d", i)
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"crypto_pseudonymize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ppcrypto.Pseudonymize(symKey, "user-12345"); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"crypto_oaep_encrypt", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ppcrypto.EncryptOAEP(kp.Public, block); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"itemlist_encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				packed, err := message.EncodeItemList(items)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ppcrypto.SymEncrypt(symKey, packed); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"batch_marshal", func(b *testing.B) {
			// One shuffle epoch's UA→IA envelope through the binary frame
			// codec, into a recycled buffer — the send-side hot path.
			body := bytes.Repeat([]byte{0xC7}, 256)
			entries := make([]message.BatchEntry, 32)
			for i := range entries {
				entries[i] = message.BatchEntry{ID: i, Kind: message.BatchKindGet, Body: body}
			}
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = message.MarshalBatchEpoch(buf[:0], uint64(i+1), entries)
				if err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"full_path_get", func(b *testing.B) {
			// Whole-stack heap churn per request on the m3 shape
			// (encryption + SGX, no shuffle) with the default key
			// material (box suite) and the frame transport on both hops —
			// the number the hopwire PR drives down against the HTTP-hop
			// baseline the root BenchmarkAblation_BodyBuffers documents
			// (798 allocs/op, 123965 B/op).
			d, err := cluster.Deploy(cluster.Spec{
				ProxyEnabled: true, UA: 1, IA: 1,
				Encryption: true, ItemPseudonyms: true,
				UseStub: true, LRSFrontends: 1,
				Hopwire: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			cl := d.Client(30 * time.Second)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Get(ctx, "bench-user"); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, bench := range benches {
		res := testing.Benchmark(bench.fn)
		if res.N == 0 {
			return nil, fmt.Errorf("alloc benchmark %s did not run", bench.name)
		}
		out[bench.name] = AllocStat{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}
	return out, nil
}
