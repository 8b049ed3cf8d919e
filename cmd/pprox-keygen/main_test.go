package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

// dirBytes reads every file under dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRotateReplaysTheWALIntoAFreshLRS runs the rotate subcommand against
// a -wal-dir written by a real 4-shard incremental engine and a fresh LRS
// that is nothing but the engine's REST handler.
func TestRotateReplaysTheWALIntoAFreshLRS(t *testing.T) {
	keyDir := t.TempDir()
	if err := run(keyDir, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(keyDir, "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	ua, ia, err := proxy.UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}

	cfg := engine.DefaultConfig()
	cfg.Shards, cfg.Incremental, cfg.WALDir = 4, true, t.TempDir()
	old, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const events = 120
	for i := 0; i < events; i++ {
		users, err := ua.PseudonymizeItems([]string{fmt.Sprintf("user-%d", i%13)})
		if err != nil {
			t.Fatal(err)
		}
		items, err := ia.PseudonymizeItems([]string{fmt.Sprintf("item-%d", (i*7)%17)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := old.InsertTypedEventIdem(users[0], items[0], "4.0", "", fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == events/2 {
			// Half the events sit in shard snapshots, half in WALs.
			if err := old.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	old.Close()
	before := dirBytes(t, cfg.WALDir)

	fresh, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	srv := httptest.NewServer(engine.NewHandler(fresh))
	defer srv.Close()

	out := t.TempDir()
	if err := rotate([]string{"-layer", "ua", "-keys", filepath.Join(keyDir, "keys.json"),
		"-wal-dir", cfg.WALDir, "-lrs", srv.URL, "-out", out}); err != nil {
		t.Fatal(err)
	}

	if n := fresh.EventCount(); n != events {
		t.Errorf("the fresh LRS stores %d events, want %d", n, events)
	}
	after := dirBytes(t, cfg.WALDir)
	if len(after) != len(before) {
		t.Errorf("the old -wal-dir held %d files, now %d", len(before), len(after))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Errorf("rotate changed %s", path)
		}
	}

	data, err = os.ReadFile(filepath.Join(out, "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	newUA, newIA, err := proxy.UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if newUA.Pair.Private.Equal(ua.Pair.Private) || newUA.Box.Equal(ua.Box) || bytes.Equal(newUA.Permanent, ua.Permanent) {
		t.Error("the UA layer kept a key through its rotation")
	}
	if !newIA.Pair.Private.Equal(ia.Pair.Private) || !newIA.Box.Equal(ia.Box) || !bytes.Equal(newIA.Permanent, ia.Permanent) {
		t.Error("a UA rotation changed the IA layer's keys")
	}
	if bytes.Equal(newUA.LinkKey, ua.LinkKey) || !bytes.Equal(newUA.LinkKey, newIA.LinkKey) {
		t.Error("the rotation did not install one fresh link key in both layers")
	}
	bundle, err := os.ReadFile(filepath.Join(out, "bundle.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want, err := proxy.MarshalBundleFile(proxy.Bundle(newUA, newIA)); err != nil || !bytes.Equal(bundle, want) {
		t.Errorf("bundle.json is not the new keys' bundle (%v)", err)
	}

	fresh.ForEachEvent(func(d store.Document) {
		raw, err := message.Decode64(d.Fields["user"])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ppcrypto.Depseudonymize(newUA.Permanent, raw); err != nil {
			t.Errorf("a stored user pseudonym does not decrypt under the fresh key: %v", err)
		}
		if _, err := ppcrypto.Depseudonymize(ua.Permanent, raw); err == nil {
			t.Error("a stored user pseudonym still decrypts under the old key")
		}
	})
}

// TestRotateRefusesAmbiguousState: the old LRS's state is one -wal-dir or
// one -snapshot, and a -wal-dir with no shard files is no state at all.
func TestRotateRefusesAmbiguousState(t *testing.T) {
	keyDir := t.TempDir()
	if err := run(keyDir, false); err != nil {
		t.Fatal(err)
	}
	keys := filepath.Join(keyDir, "keys.json")
	empty := t.TempDir()
	for name, args := range map[string][]string{
		"neither":      {"-layer", "ua", "-keys", keys, "-lrs", "http://127.0.0.1:1"},
		"both":         {"-layer", "ua", "-keys", keys, "-lrs", "http://127.0.0.1:1", "-wal-dir", empty, "-snapshot", "x"},
		"empty dir":    {"-layer", "ua", "-keys", keys, "-lrs", "http://127.0.0.1:1", "-wal-dir", empty},
		"no layer":     {"-keys", keys, "-lrs", "http://127.0.0.1:1", "-wal-dir", empty},
		"no fresh LRS": {"-layer", "ia", "-keys", keys, "-wal-dir", empty},
	} {
		if err := rotate(args); err == nil {
			t.Errorf("%s: rotate succeeded", name)
		}
	}
	if files := dirBytes(t, empty); len(files) != 0 {
		t.Errorf("rotate wrote %d files into an empty -wal-dir", len(files))
	}
}
