package main

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"testing"

	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
)

// seedEngine opens an engine under cfg, stores n keyed events, writes the
// snapshot file as a clean SIGTERM does, and closes it.
func seedEngine(t *testing.T, cfg engine.Config, snapshot string, n int) {
	t.Helper()
	eng, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := eng.InsertTypedEventIdem(fmt.Sprintf("user-%d", i), "item", "", "", fmt.Sprintf("idem-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SaveSnapshotFile(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWithWALAndSnapshot: an LRS run with both -wal-dir and
// -snapshot restarts after a clean shutdown. The WALs bring the events
// back, so the snapshot written at shutdown is not restored on top of
// them, and every event is held once. Without WALs the snapshot is the
// only copy and is restored.
func TestRestartWithWALAndSnapshot(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, tc := range []struct {
		name string
		wal  bool
	}{{"wal", true}, {"snapshot-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := engine.DefaultConfig()
			cfg.Shards = 2
			if tc.wal {
				cfg.WALDir = filepath.Join(dir, "wal")
			}
			snapshot := filepath.Join(dir, "lrs.snap")
			const n = 5
			seedEngine(t, cfg, snapshot, n)

			eng, err := loadOrNewEngine(cfg, snapshot, logger)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer eng.Close()
			seen := map[string]int{}
			eng.ForEachEvent(func(d store.Document) { seen[d.Fields["idem"]]++ })
			if eng.EventCount() != n || len(seen) != n {
				t.Fatalf("restarted LRS holds %d events under %d keys, want %d", eng.EventCount(), len(seen), n)
			}
			for k, c := range seen {
				if c != 1 {
					t.Errorf("event %q held %d times", k, c)
				}
			}
		})
	}
}
