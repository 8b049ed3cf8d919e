package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pprox/internal/metrics"
)

// seedClusters inserts two disjoint user communities: "sci" users share
// sci-fi items, "cook" users share cooking items.
func seedClusters(e *Engine) {
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("sci-user-%d", i)
		e.InsertEvent(u, "dune", "")
		e.InsertEvent(u, "foundation", "")
		e.InsertEvent(u, "hyperion", "")
	}
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("cook-user-%d", i)
		e.InsertEvent(u, "salt-fat-acid", "")
		e.InsertEvent(u, "joy-of-cooking", "")
	}
}

func TestRecommendFromCommunity(t *testing.T) {
	e := New(DefaultConfig())
	seedClusters(e)
	// A new sci-fi reader who has only seen dune.
	e.InsertEvent("newbie", "dune", "")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}

	recs := e.Recommend("newbie", 2)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	got := map[string]bool{}
	for _, r := range recs {
		got[r] = true
	}
	if !got["foundation"] && !got["hyperion"] {
		t.Errorf("recs = %v, want sci-fi items", recs)
	}
	if got["dune"] {
		t.Errorf("recs %v include an already-seen item", recs)
	}
}

func TestRecommendBlacklistsSeenItems(t *testing.T) {
	e := New(DefaultConfig())
	seedClusters(e)
	// This user has seen everything sci-fi.
	e.InsertEvent("veteran", "dune", "")
	e.InsertEvent("veteran", "foundation", "")
	e.InsertEvent("veteran", "hyperion", "")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Recommend("veteran", 10) {
		if r == "dune" || r == "foundation" || r == "hyperion" {
			t.Errorf("recommended already-seen item %q", r)
		}
	}
}

func TestColdStartFallsBackToPopular(t *testing.T) {
	e := New(DefaultConfig())
	seedClusters(e)
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	recs := e.Recommend("total-stranger", 3)
	if len(recs) == 0 {
		t.Fatal("cold-start user received no recommendations")
	}
	// All clusters' items are fair game; results must be real items.
	valid := map[string]bool{
		"dune": true, "foundation": true, "hyperion": true,
		"salt-fat-acid": true, "joy-of-cooking": true,
	}
	for _, r := range recs {
		if !valid[r] {
			t.Errorf("cold-start recommended unknown item %q", r)
		}
	}
}

// TestPopularFillsCounted: the counter an operator reads the cold-start
// share from advances exactly on the queries that fall through to the
// popularity ranking, and is exported beside the query counter.
func TestPopularFillsCounted(t *testing.T) {
	e := New(DefaultConfig())
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg, "")
	seedClusters(e)
	e.InsertEvent("newbie", "dune", "")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	// Retrieval alone finds the two other sci-fi items.
	if got := e.Recommend("newbie", 2); len(got) != 2 {
		t.Fatalf("newbie got %v, want 2 retrieved items", got)
	}
	if f := e.PopularFills(); f != 0 {
		t.Fatalf("a full page of search hits counted %d popularity fills", f)
	}
	e.Recommend("total-stranger", 3) // no history: all popularity
	e.Recommend("newbie", 4)         // 2 hits < 4: topped up
	if f := e.PopularFills(); f != 2 {
		t.Fatalf("popularity fills = %d, want 2", f)
	}
	snap := reg.Snapshot()
	if snap["pprox_lrs_popular_fills_total"] != 2 || snap["pprox_lrs_queries_total"] != 3 {
		t.Fatalf("exported fills/queries = %v/%v, want 2/3",
			snap["pprox_lrs_popular_fills_total"], snap["pprox_lrs_queries_total"])
	}
}

// TestRowsRescoredCounted: the counter rows-per-event is read from
// advances by exactly the rows each online apply re-scored — none for a
// duplicate, a secondary-typed event or a batch-only engine — and is
// exported beside the applied-events counter.
func TestRowsRescoredCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incremental = true
	e := New(cfg)
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg, "")
	for _, step := range []struct {
		user, item, typ string
		rows            uint64 // rows re-scored so far
	}{
		{"u1", "a", "", 1},     // a
		{"u1", "b", "", 3},     // a, b
		{"u1", "a", "", 3},     // duplicate: counts unchanged
		{"u1", "c", "view", 3}, // secondary indicator: batch only
		{"u2", "b", "", 4},     // b
		{"u2", "c", "", 6},     // b, c
		{"u1", "c", "", 9},     // a, b, c
	} {
		e.InsertTypedEvent(step.user, step.item, "", step.typ)
		if got := e.RowsRescored(); got != step.rows {
			t.Fatalf("after %s/%s/%q: %d rows re-scored, want %d", step.user, step.item, step.typ, got, step.rows)
		}
	}
	snap := reg.Snapshot()
	if snap["pprox_lrs_rows_rescored_total"] != 9 || snap["pprox_lrs_events_applied_total"] != 6 {
		t.Fatalf("exported rows/events = %v/%v, want 9/6",
			snap["pprox_lrs_rows_rescored_total"], snap["pprox_lrs_events_applied_total"])
	}

	batch := New(DefaultConfig())
	batch.InsertEvent("u1", "a", "")
	batch.InsertEvent("u1", "b", "")
	if got := batch.RowsRescored(); got != 0 {
		t.Fatalf("a batch-only engine re-scored %d rows online", got)
	}
}

func TestRecommendBeforeTraining(t *testing.T) {
	e := New(DefaultConfig())
	e.InsertEvent("u", "i", "")
	if recs := e.Recommend("u", 5); len(recs) != 0 {
		t.Errorf("untrained engine recommended %v", recs)
	}
}

func TestRecommendHonorsN(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 30; i++ {
		u := fmt.Sprintf("u%d", i)
		for j := 0; j < 10; j++ {
			e.InsertEvent(u, fmt.Sprintf("item-%d", j), "")
		}
	}
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	e.InsertEvent("probe", "item-0", "")
	if got := len(e.Recommend("probe", 3)); got > 3 {
		t.Errorf("Recommend(3) returned %d items", got)
	}
	// n out of range falls back to the default.
	if got := len(e.Recommend("probe", -1)); got > DefaultConfig().DefaultN {
		t.Errorf("Recommend(-1) returned %d items", got)
	}
}

func TestTrainingIsAtomicUnderQueries(t *testing.T) {
	e := New(DefaultConfig())
	seedClusters(e)
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Recommend("sci-user-1", 5)
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := e.TrainNow(); err != nil {
			t.Errorf("TrainNow: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	_, _, trains := e.Stats()
	if trains != 6 {
		t.Errorf("trains = %d, want 6", trains)
	}
}

func TestStatsAndModelInfo(t *testing.T) {
	e := New(DefaultConfig())
	e.InsertEvent("u", "i", "5")
	e.Recommend("u", 1)
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	posts, queries, trains := e.Stats()
	if posts != 1 || queries != 1 || trains != 1 {
		t.Errorf("stats = %d/%d/%d", posts, queries, trains)
	}
	if e.ModelInfo() == "" {
		t.Error("empty model info")
	}
	if e.EventCount() != 1 {
		t.Errorf("EventCount = %d", e.EventCount())
	}
}

func TestPseudonymousIdentifiersWorkUnchanged(t *testing.T) {
	// The LRS must behave identically when identifiers are PProx
	// pseudonyms (base64 blobs) — transparency is the paper's core
	// claim ("PProx does not modify in any way the results returned by
	// the LRS").
	e := New(DefaultConfig())
	pseudo := func(s string) string { return "b64:" + s + "==/opaque" }
	for i := 0; i < 15; i++ {
		u := pseudo(fmt.Sprintf("user%d", i))
		e.InsertEvent(u, pseudo("itemA"), "")
		e.InsertEvent(u, pseudo("itemB"), "")
	}
	for i := 0; i < 5; i++ {
		e.InsertEvent(pseudo(fmt.Sprintf("other%d", i)), pseudo("itemC"), "")
	}
	e.InsertEvent(pseudo("probe"), pseudo("itemA"), "")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	recs := e.Recommend(pseudo("probe"), 1)
	if len(recs) != 1 || recs[0] != pseudo("itemB") {
		t.Errorf("recs = %v, want [%s]", recs, pseudo("itemB"))
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	e := New(DefaultConfig())
	seedClusters(e)
	e.InsertEvent("probe", "dune", "")

	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh engine restored from the snapshot, retrained as
	// Harness rebuilds its model from persisted inputs.
	restored, err := NewFromSnapshot(DefaultConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EventCount() != e.EventCount() {
		t.Fatalf("restored %d events, want %d", restored.EventCount(), e.EventCount())
	}
	if err := restored.TrainNow(); err != nil {
		t.Fatal(err)
	}
	recs := restored.Recommend("probe", 2)
	if len(recs) == 0 || (recs[0] != "foundation" && recs[0] != "hyperion") {
		t.Errorf("recommendations after restore = %v", recs)
	}
}

func TestEngineSnapshotRejectsGarbage(t *testing.T) {
	if _, err := NewFromSnapshot(DefaultConfig(), strings.NewReader("junk")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestFailedInsertReleasesIdemKey: an event rejected by a WAL append
// failure must release its idempotency key, so the client's retry is
// retried for real instead of being dropped as a duplicate of an event
// that was never stored.
func TestFailedInsertReleasesIdemKey(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WALDir = t.TempDir()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // every append now fails
		t.Fatal(err)
	}
	if stored, err := e.InsertTypedEventIdem("u", "i", "", "", "k"); stored || err == nil {
		t.Fatalf("insert on dead log: stored=%v err=%v", stored, err)
	}
	// The retry must surface the storage error again — (false, nil)
	// here would mean the key leaked and the event can never be stored.
	if stored, err := e.InsertTypedEventIdem("u", "i", "", "", "k"); stored || err == nil {
		t.Fatalf("retry after failure: stored=%v err=%v (idempotency key leaked)", stored, err)
	}
	if e.DupEvents() != 0 {
		t.Fatalf("dups = %d, want 0", e.DupEvents())
	}
	if e.WALErrors() != 2 {
		t.Fatalf("wal errors = %d, want 2", e.WALErrors())
	}
}

// TestIdemRegistryReleaseAndStalePairing: release undoes exactly the
// claim it is paired with; a stale (key, slot) pairing is a no-op and
// cannot evict a newer live claim of the same key.
func TestIdemRegistryReleaseAndStalePairing(t *testing.T) {
	var ir idemRegistry
	s1, ok := ir.claim("k")
	if !ok {
		t.Fatal("fresh claim refused")
	}
	ir.release("k", s1)
	if _, ok := ir.claim("k"); !ok {
		t.Fatal("key not reclaimable after release")
	}
	ir.release("k", s1) // stale: slot s1 no longer holds "k"
	if _, ok := ir.claim("k"); ok {
		t.Fatal("stale release evicted the live claim")
	}
}
