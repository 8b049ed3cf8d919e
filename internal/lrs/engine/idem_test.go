package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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

// TestIdemSurvivesRepseudonymize: the key is enclave-minted, not a
// pseudonym, so a rotation carries it over unchanged and a retry after
// the rotation and a restart is still a duplicate.
func TestIdemSurvivesRepseudonymize(t *testing.T) {
	dir := t.TempDir()
	e := durableIdemEngine(t, dir, 4)
	for i := 0; i < 12; i++ {
		postIdem(t, e, fmt.Sprintf("old:u%d", i%4), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), true)
	}
	job, err := e.Repseudonymize("user", rekeyUser)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e = durableIdemEngine(t, dir, 4)
	defer e.Close()
	for i := 0; i < 12; i++ {
		postIdem(t, e, fmt.Sprintf("new:u%d", i%4), fmt.Sprintf("item-%d", i), fmt.Sprintf("k%d", i), false)
	}
	if n := e.EventCount(); n != 12 {
		t.Fatalf("%d events after retrying every key past a rotation, want 12", n)
	}
}
