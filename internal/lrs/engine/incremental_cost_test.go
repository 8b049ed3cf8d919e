package engine

import (
	"testing"

	"pprox/internal/lrs/cco"
	"pprox/internal/workload"
)

// benchEngine opens the repository benchmark's engine: four WAL-backed
// shards, incremental, the lrs10x downsampling (windows of 20, rows of 30).
func benchEngine(tb testing.TB) *Engine {
	cfg := DefaultConfig()
	cfg.Trainer = cco.Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
	cfg.Shards, cfg.WALDir, cfg.Incremental = 4, tb.TempDir(), true
	e, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e
}

// scaledEvents is the repository benchmark's stream: n events at 10× the
// paper's MovieLens cardinality.
func scaledEvents(seed int64, n int) []workload.Event {
	p := workload.ScaledMovieLensParams(10)
	p.Events, p.Seed = n, seed
	return workload.Generate(p).Events
}

// BenchmarkEngineInsertIncremental prices a post on a seeded engine end to
// end below the REST handler: WAL append, fold, re-scoring, index patch.
// seed-ns/event is the same path while the model is still filling — what
// the repository benchmark's setup_s is made of.
func BenchmarkEngineInsertIncremental(b *testing.B) {
	const seeded, posted = 6000, 1200
	events := scaledEvents(1, seeded+posted)
	b.ReportAllocs()
	var seedNanos int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b)
		before := b.Elapsed()
		b.StartTimer()
		for _, ev := range events[:seeded] {
			e.InsertEvent(ev.User, ev.Item, ev.Rating)
		}
		b.StopTimer()
		seedNanos += (b.Elapsed() - before).Nanoseconds()
		e.Refresh()
		b.StartTimer()
		for _, ev := range events[seeded:] {
			e.InsertEvent(ev.User, ev.Item, ev.Rating)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(seedNanos)/n/seeded, "seed-ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds()-seedNanos)/n/posted, "post-ns/event")
}
