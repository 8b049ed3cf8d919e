package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pprox/internal/lrs/cco"
)

// tinyTrainer forces window evictions and row caps at test scale.
func tinyTrainer() cco.Config {
	return cco.Config{MaxInteractionsPerUser: 5, MaxCorrelatorsPerItem: 5}
}

// feedStream posts a deterministic event stream to every given engine.
func feedStream(seed int64, n, users, items int, engines ...*Engine) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("user-%02d", rng.Intn(users))
		it := fmt.Sprintf("item-%02d", rng.Intn(items))
		for _, e := range engines {
			e.InsertEvent(u, it, "")
		}
	}
}

// TestIncrementalEngineMatchesBatchEngine: an engine that never batch
// trains — it only folds events in online — recommends exactly what a
// batch-trained twin does, once Refresh has re-scored the rows whose
// counts never changed after the population shifted.
func TestIncrementalEngineMatchesBatchEngine(t *testing.T) {
	cfgInc := DefaultConfig()
	cfgInc.Trainer = tinyTrainer()
	cfgInc.Incremental = true
	cfgInc.Shards = 3
	inc := New(cfgInc)

	cfgBatch := DefaultConfig()
	cfgBatch.Trainer = tinyTrainer()
	cfgBatch.Shards = 3
	batch := New(cfgBatch)

	feedStream(11, 600, 8, 15, inc, batch)
	if err := batch.TrainNow(); err != nil {
		t.Fatal(err)
	}
	inc.Refresh()

	for u := 0; u < 8; u++ {
		user := fmt.Sprintf("user-%02d", u)
		got := inc.Recommend(user, 10)
		want := batch.Recommend(user, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s: incremental %v, batch %v", user, got, want)
		}
	}
	if got, want := inc.Recommend("cold-user", 5), batch.Recommend("cold-user", 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold start: incremental %v, batch %v", got, want)
	}
	if inc.EventsApplied() != 600 {
		t.Fatalf("events applied = %d", inc.EventsApplied())
	}
	if inc.ApplySeconds() <= 0 {
		t.Fatal("apply seconds not recorded")
	}
}

// TestIncrementalServesWithoutTraining: freshness is the point of the
// online path — history-based recommendations appear with no TrainNow at
// all.
func TestIncrementalServesWithoutTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Incremental = true
	e := New(cfg)
	// Two users sharing items a,b; one of them also accessed c.
	e.InsertEvent("u1", "a", "")
	e.InsertEvent("u1", "b", "")
	e.InsertEvent("u1", "c", "")
	e.InsertEvent("u2", "a", "")
	e.InsertEvent("u2", "b", "")

	recs := e.Recommend("u2", 3)
	if len(recs) == 0 || recs[0] != "c" {
		t.Fatalf("no fresh recommendation before any training: %v", recs)
	}
	_, _, trains := e.Stats()
	if trains != 0 {
		t.Fatalf("batch trained %d times", trains)
	}
}

// TestIncrementalSurvivesTrainNowReseed: TrainNow (the compaction
// fallback) reseeds the online counts; applying more events afterwards
// keeps converging instead of double-counting.
func TestIncrementalSurvivesTrainNowReseed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Incremental = true
	cfg.Shards = 2
	e := New(cfg)

	batchCfg := DefaultConfig()
	batchCfg.Trainer = tinyTrainer()
	batchCfg.Shards = 2
	twin := New(batchCfg)

	// samePopularity: the live ranking (what an incremental engine fills
	// from), the served model's ranking and the batch twin's all read the
	// same, past the end of the catalogue.
	samePopularity := func(stage string) {
		t.Helper()
		if err := twin.TrainNow(); err != nil {
			t.Fatal(err)
		}
		want := twin.model.Load().Primary.PopularItems(15)
		if got := e.inc.Load().PopularItems(15); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: live ranking %v, twin %v", stage, got, want)
		}
		if got := e.model.Load().Primary.PopularItems(15); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served model ranking %v, twin %v", stage, got, want)
		}
		if got, want := e.Recommend("cold-user", 10), twin.Recommend("cold-user", 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cold start %v, twin %v", stage, got, want)
		}
	}

	feedStream(3, 200, 5, 10, e, twin)
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	samePopularity("after TrainNow reseed")
	feedStream(4, 200, 5, 10, e, twin)

	e.Refresh()
	samePopularity("after Refresh")
	for u := 0; u < 5; u++ {
		user := fmt.Sprintf("user-%02d", u)
		if got, want := e.Recommend(user, 10), twin.Recommend(user, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s after reseed: %v, twin %v", user, got, want)
		}
	}
}

// BenchmarkRecommendColdStart: a get with no usable history is all
// popularity fill; its cost must not grow with the catalogue. One user
// per item keeps seeding linear (no pair counts), so the three engines
// differ in catalogue size only.
func BenchmarkRecommendColdStart(b *testing.B) {
	for _, items := range []int{1_000, 17_000, 171_000} {
		cfg := DefaultConfig()
		cfg.Incremental = true
		e := New(cfg)
		for i := 0; i < items; i++ {
			e.InsertEvent(fmt.Sprintf("user-%06d", i), fmt.Sprintf("item-%06d", i), "")
		}
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := e.Recommend("cold-user", 20); len(got) != 20 {
					b.Fatalf("cold start returned %d items", len(got))
				}
			}
		})
	}
}

// TestCrashRecoveryMatchesUncrashedTwin is the crash-recovery test: an
// LRS shard is killed mid-WAL-append (the torn frame a real kill leaves),
// the engine restarts, replays its WALs, and serves recommendations
// identical to a twin that never crashed.
func TestCrashRecoveryMatchesUncrashedTwin(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards = 4
	cfg.WALDir = dir
	cfg.Incremental = true
	crashed, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	twinCfg := cfg
	twinCfg.WALDir = "" // in-memory twin, same sharding
	twin := New(twinCfg)

	feedStream(21, 500, 10, 20, crashed, twin)

	// Kill: release the files without compacting, then tear one shard's
	// WAL tail as an interrupted append would.
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "shard-001.wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restarted, err := Open(cfg) // replays WALs, rebuilds the model
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if restarted.EventCount() != twin.EventCount() {
		t.Fatalf("replayed %d events, twin has %d", restarted.EventCount(), twin.EventCount())
	}
	if err := twin.TrainNow(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("user-%02d", u)
		got := restarted.Recommend(user, 10)
		want := twin.Recommend(user, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s: restarted %v, twin %v", user, got, want)
		}
	}
}

// TestDurableCompactThenRestart: Compact persists the shard snapshots; a
// restart replays nothing but still serves the same state.
func TestDurableCompactThenRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards = 2
	cfg.WALDir = dir
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedStream(5, 120, 4, 8, e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	before := e.Recommend("user-00", 10)
	e.Close()

	// Every WAL is empty after compaction: state lives in the snapshots.
	for i := 0; i < 2; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i)))
		if err != nil || fi.Size() != 0 {
			t.Fatalf("shard %d WAL not truncated: %v %v", i, fi, err)
		}
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.EventCount() != 120 {
		t.Fatalf("restored %d events", e2.EventCount())
	}
	if got := e2.Recommend("user-00", 10); !reflect.DeepEqual(got, before) {
		t.Fatalf("post-compact restart: %v, want %v", got, before)
	}
}

// TestEngineSnapshotShardCountChange: a v2 snapshot written by a 3-shard
// engine restores into a 5-shard one — events re-route through the ring
// and the retrained model matches.
func TestEngineSnapshotShardCountChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards = 3
	e := New(cfg)
	feedStream(9, 300, 6, 12, e)
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cfg5 := cfg
	cfg5.Shards = 5
	e5, err := NewFromSnapshot(cfg5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e5.TrainNow(); err != nil {
		t.Fatal(err)
	}
	if e5.EventCount() != e.EventCount() {
		t.Fatalf("event counts differ: %d vs %d", e5.EventCount(), e.EventCount())
	}
	if e5.NumShards() != 5 {
		t.Fatalf("shards = %d", e5.NumShards())
	}
	for u := 0; u < 6; u++ {
		user := fmt.Sprintf("user-%02d", u)
		got := e5.Recommend(user, 10)
		want := e.Recommend(user, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s after reshard: %v, want %v", user, got, want)
		}
	}
}

// TestSaveSnapshotFileAtomic: the engine-level file save goes through the
// temp+rename path.
func TestSaveSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lrs.snap")
	cfg := DefaultConfig()
	cfg.Shards = 2
	e := New(cfg)
	e.InsertEvent("u", "i", "")
	if err := e.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e2, err := NewFromSnapshot(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if e2.EventCount() != 1 {
		t.Fatalf("restored %d events", e2.EventCount())
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter in %v", entries)
	}
}
