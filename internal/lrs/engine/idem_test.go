package engine

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pprox/internal/lrs/store"
)

// durableIdemEngine opens a WAL-backed engine under dir.
func durableIdemEngine(t *testing.T, dir string, shards int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards, cfg.WALDir, cfg.Incremental = shards, dir, true
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// postIdem posts one keyed event and checks what the engine reports.
func postIdem(t *testing.T, e *Engine, user, item, key string, wantStored bool) {
	t.Helper()
	stored, err := e.InsertTypedEventIdem(user, item, "5", "", key)
	if err != nil || stored != wantStored {
		t.Fatalf("post %s/%s key %q: (%v, %v), want (%v, nil)", user, item, key, stored, err, wantStored)
	}
}

// TestIdemSurvivesRestart: a retry whose first delivery was stored before
// the engine restarted is still a duplicate after it — whether the event
// came back from the WAL or from a compacted snapshot.
func TestIdemSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := durableIdemEngine(t, dir, 2)
	postIdem(t, e, "u", "i", "k", true)
	e.Close()

	e = durableIdemEngine(t, dir, 2) // replays the WAL
	postIdem(t, e, "u", "i", "k", false)
	if n := e.EventCount(); n != 1 {
		t.Fatalf("%d events after a retry across a restart, want 1", n)
	}
	postIdem(t, e, "u", "j", "k2", true)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e = durableIdemEngine(t, dir, 2) // loads the snapshots, replays nothing
	defer e.Close()
	postIdem(t, e, "u", "i", "k", false)
	postIdem(t, e, "u", "j", "k2", false)
	if n, dups := e.EventCount(), e.DupEvents(); n != 2 || dups != 2 {
		t.Fatalf("after compaction and restart: %d events, %d dups; want 2, 2", n, dups)
	}
}

// TestIdemTornTailIsNotRemembered: the post a crash tore out of the WAL
// was never acknowledged durably, so its key is not recalled — the retry
// stores the event — while the intact one before it stays a duplicate.
func TestIdemTornTailIsNotRemembered(t *testing.T) {
	dir := t.TempDir()
	e := durableIdemEngine(t, dir, 1)
	postIdem(t, e, "u", "a", "kept", true)
	postIdem(t, e, "u", "b", "torn", true)
	e.Close()

	walPath := filepath.Join(dir, "shard-000.wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	e = durableIdemEngine(t, dir, 1)
	defer e.Close()
	if n := e.EventCount(); n != 1 {
		t.Fatalf("replayed %d events from a torn WAL, want 1", n)
	}
	postIdem(t, e, "u", "b", "torn", true)
	postIdem(t, e, "u", "a", "kept", false)
	if n := e.EventCount(); n != 2 {
		t.Fatalf("%d events after the retries, want 2", n)
	}
}

// TestIdemSurvivesReshardedRestore: a snapshot restored into a different
// shard count re-routes its events, and the recalled keys follow them.
func TestIdemSurvivesReshardedRestore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards = 3
	e := New(cfg)
	for i := 0; i < 30; i++ {
		postIdem(t, e, fmt.Sprintf("u%d", i%7), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), true)
	}
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cfg.Shards = 5
	e5, err := NewFromSnapshot(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		postIdem(t, e5, fmt.Sprintf("u%d", i%7), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), false)
	}
	if n := e5.EventCount(); n != 30 {
		t.Fatalf("%d events after retrying every key on 5 shards, want 30", n)
	}
}

// TestIdemSurvivesRotationReplay: the key is enclave-minted, not a
// pseudonym, so a rotation's replay into a fresh LRS carries it over
// unchanged, and a retry after the rotation and a restart of the fresh
// LRS is still a duplicate.
func TestIdemSurvivesRotationReplay(t *testing.T) {
	old := durableIdemEngine(t, t.TempDir(), 4)
	defer old.Close()
	for i := 0; i < 12; i++ {
		postIdem(t, old, fmt.Sprintf("old:u%d", i%4), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), true)
	}
	dir := t.TempDir()
	fresh := durableIdemEngine(t, dir, 4)
	old.ForEachEvent(func(d store.Document) {
		user := "new:" + strings.TrimPrefix(d.Fields["user"], "old:")
		postIdem(t, fresh, user, d.Fields["item"], d.Fields[idemField], true)
	})
	fresh.Close()

	fresh = durableIdemEngine(t, dir, 4)
	defer fresh.Close()
	for i := 0; i < 12; i++ {
		postIdem(t, fresh, fmt.Sprintf("new:u%d", i%4), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), false)
	}
	if n := fresh.EventCount(); n != 12 {
		t.Fatalf("%d events after retrying every key past a rotation, want 12", n)
	}
}

// idemKey is the i-th key of a test's claim stream.
func idemKey(i int) string { return "k" + strconv.Itoa(i) }

// checkWindow asserts the registry holds exactly keys from..to-1 of the
// stream.
func checkWindow(t *testing.T, ir *idemRegistry, from, to int) {
	t.Helper()
	if len(ir.seen) != to-from {
		t.Fatalf("window holds %d keys, want %d", len(ir.seen), to-from)
	}
	for i := 0; i < to; i++ {
		if _, held := ir.seen[idemKey(i)]; held != (i >= from) {
			t.Fatalf("key %d held = %v, want %v", i, held, i >= from)
		}
	}
}

// TestIdemWindowGrowsWithUse: a fresh registry holds no slots and N
// claims hold N; past idemWindow the ring wraps and forgets the oldest
// keys first, exactly as a window allocated whole would.
func TestIdemWindowGrowsWithUse(t *testing.T) {
	var ir idemRegistry
	if len(ir.ring) != 0 || len(ir.seen) != 0 {
		t.Fatalf("fresh registry holds %d slots, %d keys", len(ir.ring), len(ir.seen))
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if slot, ok := ir.claim(idemKey(i)); !ok || slot != i {
			t.Fatalf("claim %d: slot %d ok %v", i, slot, ok)
		}
	}
	if len(ir.ring) != n {
		t.Fatalf("%d claims hold %d slots", n, len(ir.ring))
	}
	checkWindow(t, &ir, 0, n)

	const k = 7
	for i := n; i < idemWindow+k; i++ {
		ir.claim(idemKey(i))
	}
	if len(ir.ring) != idemWindow {
		t.Fatalf("ring grew to %d slots, window is %d", len(ir.ring), idemWindow)
	}
	checkWindow(t, &ir, k, idemWindow+k)
	if _, ok := ir.claim(idemKey(k)); ok {
		t.Fatal("the oldest remembered key was claimed again")
	}
	if _, ok := ir.claim(idemKey(k - 1)); !ok {
		t.Fatal("a forgotten key was refused")
	}
}

// TestIdemReleaseWhileGrowing: releasing a claim made while the ring is
// still growing frees exactly that key; the slot stays in the ring, and
// the next claim takes a new one.
func TestIdemReleaseWhileGrowing(t *testing.T) {
	var ir idemRegistry
	for i := 0; i < 3; i++ {
		ir.claim(idemKey(i))
	}
	ir.release(idemKey(1), 1)
	if _, held := ir.seen[idemKey(1)]; held || len(ir.seen) != 2 {
		t.Fatalf("after release the window holds %v", ir.seen)
	}
	ir.release(idemKey(2), 0) // not the pairing claim(k2) returned
	if _, held := ir.seen[idemKey(2)]; !held {
		t.Fatal("a release with the wrong slot freed the key")
	}
	if slot, ok := ir.claim(idemKey(1)); !ok || slot != 3 {
		t.Fatalf("reclaim after release: slot %d ok %v, want slot 3", slot, ok)
	}
	if len(ir.ring) != 4 {
		t.Fatalf("ring holds %d slots, want 4", len(ir.ring))
	}
}

// TestIdemRecallFromMoreKeysThanTheWindow: recallIdemKeys refills a fresh
// window from a log holding more keyed events than the window holds; it
// keeps the newest, as the window that saw them would have.
func TestIdemRecallFromMoreKeysThanTheWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trainer = tinyTrainer()
	cfg.Shards = 1
	e := New(cfg)
	const k = 5
	for i := 0; i < idemWindow+k; i++ {
		if _, err := e.log.Insert(map[string]string{"user": "u", "item": "i", idemField: idemKey(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.recallIdemKeys()
	if len(e.idem.ring) != idemWindow {
		t.Fatalf("recall filled %d slots, window is %d", len(e.idem.ring), idemWindow)
	}
	checkWindow(t, &e.idem, k, idemWindow+k)
}

// TestIdemWindowMemoryCeiling pins what an engine's idempotency window
// holds after its first keyed post, in the style of the root package's
// TestAllocationCeilings: the ceiling is the recorded baseline × 1.25.
// The window grows with use, so one key costs a map and a one-slot
// ring; allocating the whole window at the first claim cost 3.3 MB.
func TestIdemWindowMemoryCeiling(t *testing.T) {
	const baseline = 320 // bytes
	got := math.Inf(1)
	for run := 0; run < 5; run++ { // the least of five: another goroutine may allocate meanwhile
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ir := new(idemRegistry)
		ir.claim("k")
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ir)
		got = math.Min(got, float64(after.TotalAlloc-before.TotalAlloc))
	}
	ceiling := math.Floor(baseline * 1.25)
	if got > ceiling || got >= 64<<10 {
		t.Errorf("the window holds %.0f B after one keyed post, ceiling %.0f (baseline %d)", got, ceiling, baseline)
	}
	t.Logf("window after one keyed post: %.0f B (ceiling %.0f)", got, ceiling)
}
