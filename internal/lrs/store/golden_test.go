package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The golden tests pin the on-disk formats — WAL frames, the store
// snapshot, a shard's snapshot envelope and the sharded v2 snapshot — to
// bytes captured in testdata/, so a change to the in-memory layout cannot
// change what a running deployment has already written or will write.

// goldenDocs is a fixed event set: twelve documents, so lexical and
// numeric ID order differ, with an idempotency key, a secondary type, a
// missing field, an empty value and a value that needs JSON escapes.
func goldenDocs() []map[string]string {
	docs := make([]map[string]string, 12)
	for i := range docs {
		docs[i] = map[string]string{
			"user":    fmt.Sprintf("enc:u%d", i%3),
			"item":    fmt.Sprintf("item-%d", i),
			"payload": strconv.Itoa(i % 5),
			"type":    "",
		}
	}
	docs[3]["idem"] = "k-3"
	docs[4] = map[string]string{"user": "enc:\"q\" <&> é\n", "payload": ""}
	docs[7]["type"] = "view"
	return docs
}

// checkGolden compares got with testdata/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\n got %q\nwant %q", name, got, want)
	}
}

// TestWALShardFormatsGolden: a WAL shard's frames, and the snapshot
// envelope its compaction writes, are byte-for-byte the recorded ones.
func TestWALShardFormatsGolden(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, d := range goldenDocs() {
		if err := w.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := os.ReadFile(shardWALPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shard.wal", frames)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(shardSnapPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shard.snap", snap)
}

// TestSnapshotFormatsGolden: WriteSnapshot of a store with a deleted
// document and two collections, and the sharded log's v2 snapshot, are
// byte-for-byte the recorded ones.
func TestSnapshotFormatsGolden(t *testing.T) {
	s := New()
	events := s.Collection("events")
	events.EnsureIndex("user")
	for _, d := range goldenDocs() {
		events.Insert(d)
	}
	events.Delete("events/6")
	s.Collection("items").Insert(map[string]string{"name": "catalog-entry"})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "store.json", buf.Bytes())

	l, err := OpenShardedLog(ShardedConfig{Shards: 3, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, d := range goldenDocs() {
		if _, err := l.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sharded.json", buf.Bytes())
}
