package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pprox/internal/lrs/cco"
	"pprox/internal/message"
	"pprox/internal/workload"
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
	// from, and the only one it keeps) and the batch twin's read the
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
		if m := e.model.Load(); m.Primary != nil {
			t.Fatalf("%s: the incremental engine keeps a primary model of %d rows beside its index", stage, len(m.Primary.Indicators))
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

// TestDeferredRescoreMatchesBatchRows is the deferral's property test at
// the repository benchmark's shape (10× MovieLens, windows of 20, rows of
// 30, four shards): seeded random interleavings of 1–5 posts and then a
// get. A shadow cco.Incremental folds the same posts and rescores at the
// same reads, so it names the rows each read rescored. Every such row
// must equal cco.Train's row over the acked prefix, bit for bit, and the
// live index must carry exactly its items. After Refresh the engine
// recommends what a batch-trained twin does.
func TestDeferredRescoreMatchesBatchRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = cco.Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
	cfg.Shards, cfg.Incremental = 4, true
	e := New(cfg)
	twinCfg := cfg
	twinCfg.Incremental = false
	twin := New(twinCfg)
	shadow := cco.NewIncremental(cfg.Trainer)

	events := scaledEvents(17, 1200)
	rng := rand.New(rand.NewSource(17))
	var acked []cco.Event
	var reads, rows int
	for len(acked) < len(events) {
		for k := 1 + rng.Intn(5); k > 0 && len(acked) < len(events); k-- {
			ev := events[len(acked)]
			e.InsertEvent(ev.User, ev.Item, ev.Rating)
			twin.InsertEvent(ev.User, ev.Item, ev.Rating)
			shadow.Fold(cco.Event{User: ev.User, Item: ev.Item})
			acked = append(acked, cco.Event{User: ev.User, Item: ev.Item})
		}
		before := e.RowsRescored()
		e.Recommend(acked[len(acked)-1].User, 20)
		rescored := shadow.Rescore()
		if got := e.RowsRescored() - before; got != uint64(len(rescored)) {
			t.Fatalf("read %d rescored %d rows, the shadow model %d", reads, got, len(rescored))
		}
		batch := cco.Train(acked, cfg.Trainer)
		idx := e.index.Load()
		for _, up := range rescored {
			want := batch.Indicators[up.Item]
			if !sameRowBits(up.Indicators, want) {
				t.Fatalf("read %d after %d posts: row %q = %v, batch %v", reads, len(acked), up.Item, up.Indicators, want)
			}
			doc, _ := idx.Get(up.Item)
			if terms := doc.Fields["indicators"]; !reflect.DeepEqual(terms, rowItems(want)) {
				t.Fatalf("read %d: index row %q = %v, batch %v", reads, up.Item, terms, rowItems(want))
			}
		}
		reads++
		rows += len(rescored)
	}
	t.Logf("%d posts, %d reads, %d rows rescored", len(acked), reads, rows)

	e.Refresh()
	if err := twin.TrainNow(); err != nil {
		t.Fatal(err)
	}
	users := (&workload.Dataset{Events: events}).DistinctUsers()
	for i := 0; i < len(users); i += len(users)/100 + 1 {
		if got, want := e.Recommend(users[i], 20), twin.Recommend(users[i], 20); !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s after Refresh: %v, batch twin %v", users[i], got, want)
		}
	}
}

// sameRowBits reports whether two indicator rows name the same items in
// the same order with bit-identical scores; nil and empty are alike.
func sameRowBits(a, b []cco.Correlation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].LLR) != math.Float64bits(b[i].LLR) {
			return false
		}
	}
	return true
}

// rowItems is a row as the index holds it: its items, nil when empty.
func rowItems(row []cco.Correlation) []string {
	var items []string
	for _, c := range row {
		items = append(items, c.Item)
	}
	return items
}

// TestConcurrentRESTPostsAndGets runs posts and gets side by side over
// REST on a WAL-backed four-shard engine, with a TrainNow in the middle
// (what /train or a rotation does), under the race detector in tier 1.
// Each writer owns its users, so per-user order — all CCO depends on — is
// fixed; after the final Refresh the engine recommends what a batch twin
// fed the same events does.
func TestConcurrentRESTPostsAndGets(t *testing.T) {
	const writers, perWriter, users, items = 4, 150, 6, 40
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards, cfg.WALDir, cfg.Incremental = 4, t.TempDir(), true
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := NewHandler(e)

	stream := func(w int) [][2]string {
		rng := rand.New(rand.NewSource(int64(w)))
		evs := make([][2]string, perWriter)
		for i := range evs {
			evs[i] = [2]string{fmt.Sprintf("w%d-user-%d", w, rng.Intn(users)), fmt.Sprintf("item-%02d", rng.Intn(items))}
		}
		return evs
	}
	serve := func(path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}

	var wg sync.WaitGroup
	trained := make(chan error, 1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, ev := range stream(w) {
				if code := serve(message.EventsPath, fmt.Sprintf(`{"user":%q,"item":%q}`, ev[0], ev[1])); code != http.StatusOK {
					t.Errorf("post %v: status %d", ev, code)
					return
				}
				if code := serve(message.QueriesPath, fmt.Sprintf(`{"user":%q}`, ev[0])); code != http.StatusOK {
					t.Errorf("get %s: status %d", ev[0], code)
					return
				}
				if w == 0 && i == perWriter/2 {
					trained <- e.TrainNow()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-trained; err != nil {
		t.Fatal(err)
	}

	twinCfg := cfg
	twinCfg.WALDir, twinCfg.Incremental = "", false
	twin := New(twinCfg)
	for w := 0; w < writers; w++ {
		for _, ev := range stream(w) {
			twin.InsertEvent(ev[0], ev[1], "")
		}
	}
	e.Refresh()
	if err := twin.TrainNow(); err != nil {
		t.Fatal(err)
	}
	if e.EventCount() != twin.EventCount() {
		t.Fatalf("engine holds %d events, twin %d", e.EventCount(), twin.EventCount())
	}
	for w := 0; w < writers; w++ {
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("w%d-user-%d", w, u)
			if got, want := e.Recommend(user, 10), twin.Recommend(user, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("user %s: %v, batch twin %v", user, got, want)
			}
		}
	}
}
