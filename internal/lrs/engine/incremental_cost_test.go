package engine

import (
	"reflect"
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

// BenchmarkEngineInsertIncremental prices the post path in its two
// regimes, below the REST handler. seed-ns/event is posts with no read
// between them while the model is still filling — WAL append and fold,
// what the repository benchmark's setup_s is made of; the Refresh that
// ends seeding is not timed. post-ns/event is a post on the seeded engine
// followed by a get for the posting user — the get rescores the rows the
// post changed and patches them into the index before it searches.
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
			e.Recommend(ev.User, 20)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(seedNanos)/n/seeded, "seed-ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds()-seedNanos)/n/posted, "post-ns/event")
}

// TestIncrementalApplyBeatsFullTrain is the online path's reason to
// exist, at 10× the paper's MovieLens cardinality on eight WAL-backed
// shards: applying one event — its fold, and the rescore of the rows it
// changed by a get right after it — must cost at most a tenth of one full
// TrainNow over the same log, and the folded model, once refreshed, must
// recommend exactly what the batch-trained twin does. Both sides are
// timed in this process on the same log, so the ratio holds across hosts.
func TestIncrementalApplyBeatsFullTrain(t *testing.T) {
	const events, minSpeedup = 5000, 10
	cfg := DefaultConfig()
	cfg.Trainer = cco.Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
	cfg.Shards, cfg.WALDir, cfg.Incremental = 8, t.TempDir(), true
	inc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	twinCfg := cfg
	twinCfg.WALDir, twinCfg.Incremental = "", false
	twin := New(twinCfg)

	p := workload.ScaledMovieLensParams(10)
	p.Events = events
	data := workload.Generate(p)
	for _, ev := range data.Events {
		inc.InsertEvent(ev.User, ev.Item, ev.Rating)
		inc.Recommend(ev.User, 10) // rescores what the post changed
		twin.InsertEvent(ev.User, ev.Item, ev.Rating)
	}
	if got := inc.EventsApplied(); got != events {
		t.Fatalf("%d of %d events applied incrementally", got, events)
	}
	if inc.RowsRescored() < events {
		t.Fatalf("%d rows rescored over %d post+get pairs: the gets did not rescore", inc.RowsRescored(), events)
	}
	if err := twin.TrainNow(); err != nil {
		t.Fatal(err)
	}
	apply, train := inc.ApplySeconds()/events, twin.TrainSeconds()
	if apply*minSpeedup > train {
		t.Errorf("one apply costs %.0f µs, one TrainNow %.0f µs: ×%.1f, want ≥ ×%d",
			apply*1e6, train*1e6, train/apply, minSpeedup)
	}
	t.Logf("fold+rescore %.1f µs/event (%.1f rows), TrainNow %.1f ms: ×%.0f",
		apply*1e6, float64(inc.RowsRescored())/events, train*1e3, train/apply)

	inc.Refresh()
	users := data.DistinctUsers()
	for i := 0; i < len(users); i += len(users)/200 + 1 {
		u := users[i]
		if got, want := inc.Recommend(u, 10), twin.Recommend(u, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s: incremental %v, batch %v", u, got, want)
		}
	}
}
