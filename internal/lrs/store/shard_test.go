package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRingOwnerDeterministicAndInRange(t *testing.T) {
	r1 := NewRing(5)
	r2 := NewRing(5)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("pseudonym-%d", i)
		o := r1.Owner(key)
		if o < 0 || o >= 5 {
			t.Fatalf("owner %d out of range", o)
		}
		if o != r2.Owner(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing(4)
	hits := make([]int, 4)
	for i := 0; i < 4000; i++ {
		hits[r.Owner(fmt.Sprintf("user-%d", i))]++
	}
	for i, h := range hits {
		if h == 0 {
			t.Fatalf("shard %d received no keys: %v", i, hits)
		}
		if h > 3000 {
			t.Fatalf("shard %d hogs the ring: %v", i, hits)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r := NewRing(1)
	if o := r.Owner("anything"); o != 0 {
		t.Fatalf("single-shard owner = %d", o)
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, last, err := openWAL(path, func(walRecord) { t.Fatal("replay on empty WAL") })
	if err != nil {
		t.Fatal(err)
	}
	if last != 0 {
		t.Fatalf("empty WAL last seq = %d", last)
	}
	for i := 1; i <= 3; i++ {
		if err := appendRecord(w, walRecord{Seq: uint64(i), Fields: map[string]string{"user": fmt.Sprintf("u%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	var replayed []walRecord
	w2, last, err := openWAL(path, func(rec walRecord) { replayed = append(replayed, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if last != 3 || len(replayed) != 3 {
		t.Fatalf("replay: last=%d records=%d", last, len(replayed))
	}
	if replayed[2].Fields["user"] != "u3" {
		t.Fatalf("replayed[2] = %+v", replayed[2])
	}
}

// TestWALTruncatesTornTail simulates a crash mid-append: a partial frame
// at the end of the file must be dropped on open and the WAL must accept
// fresh appends afterwards.
func TestWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(w, walRecord{Seq: 1, Fields: map[string]string{"user": "alpha"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tail := range [][]byte{
		{0x09},                   // lone partial length prefix
		{0xff, 0xff, 0xff, 0x7f}, // length prefix promising more than the file holds
		append([]byte{5, 0, 0, 0, 1, 2, 3, 4}, []byte("abc")...), // full header, short payload
	} {
		if err := os.WriteFile(path, append(append([]byte{}, intact...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var got []walRecord
		w, last, err := openWAL(path, func(rec walRecord) { got = append(got, rec) })
		if err != nil {
			t.Fatalf("tail %v: %v", tail, err)
		}
		if last != 1 || len(got) != 1 || got[0].Fields["user"] != "alpha" {
			t.Fatalf("tail %v: replay last=%d got=%v", tail, last, got)
		}
		// The torn bytes are gone: a new append then a clean reopen sees
		// exactly two records.
		if err := appendRecord(w, walRecord{Seq: 2, Fields: map[string]string{"user": "beta"}}); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		var again []walRecord
		w2, _, err := openWAL(path, func(rec walRecord) { again = append(again, rec) })
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != 2 || again[1].Fields["user"] != "beta" {
			t.Fatalf("tail %v: post-truncate replay = %v", tail, again)
		}
		w2.close()
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALRejectsCorruptRecord: a bit-flip inside a frame body fails the
// CRC and cuts the replay at that point rather than delivering garbage.
func TestWALCorruptRecordCutsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(w, walRecord{Seq: 1, Fields: map[string]string{"user": "a"}})
	appendRecord(w, walRecord{Seq: 2, Fields: map[string]string{"user": "b"}})
	w.close()

	b, _ := os.ReadFile(path)
	b[len(b)-2] ^= 0xff // flip a byte inside the last record's payload
	os.WriteFile(path, b, 0o644)

	var got []walRecord
	w2, last, err := openWAL(path, func(rec walRecord) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if last != 1 || len(got) != 1 {
		t.Fatalf("corrupt record not cut: last=%d got=%v", last, got)
	}
}

func FuzzDecodeWALRecords(f *testing.F) {
	var buf bytes.Buffer
	{
		path := filepath.Join(f.TempDir(), "seed.wal")
		w, _, err := openWAL(path, nil)
		if err != nil {
			f.Fatal(err)
		}
		appendRecord(w, walRecord{Seq: 1, Fields: map[string]string{"user": "u", "item": "i"}})
		w.close()
		b, _ := os.ReadFile(path)
		buf.Write(b)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := decodeWALRecords(data)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("intact length %d out of [0, %d]", n, len(data))
		}
		// Re-decoding the intact prefix must reproduce the same records.
		again, n2 := decodeWALRecords(data[:n])
		if n2 != n || len(again) != len(recs) {
			t.Fatalf("prefix not stable: %d/%d records, %d/%d bytes", len(again), len(recs), n2, n)
		}
	})
}

func TestWALShardReopenReplaysInserts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Insert(map[string]string{"user": "enc:u1", "item": fmt.Sprintf("i%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // no Compact: recovery comes purely from the WAL
		t.Fatal(err)
	}

	s2, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 5 {
		t.Fatalf("replayed count = %d", s2.Count())
	}
	docs := s2.FindBy("user", "enc:u1")
	if len(docs) != 5 || docs[0].Fields["item"] != "i0" || docs[4].Fields["item"] != "i4" {
		t.Fatalf("replayed docs out of order: %v", docs)
	}
}

func TestWALShardCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(map[string]string{"user": "a", "item": "1"})
	s.Insert(map[string]string{"user": "b", "item": "2"})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(shardWALPath(dir, 1)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after compact: %v %v", fi, err)
	}
	s.Insert(map[string]string{"user": "c", "item": "3"}) // post-compaction tail lives in the WAL
	s.Close()

	s2, err := OpenWALShard(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 3 {
		t.Fatalf("count after snapshot+tail replay = %d", s2.Count())
	}
}

// TestWALShardCrashBetweenSnapshotAndTruncate covers the compaction crash
// window: the snapshot has been renamed into place (applied_seq = N) but
// the WAL still holds records ≤ N. Replay must skip the stale records and
// apply only newer ones — no double-application.
func TestWALShardCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(map[string]string{"user": "a", "item": "1"})
	s.Insert(map[string]string{"user": "a", "item": "2"})
	if err := s.Compact(); err != nil { // snapshot at applied_seq=2, WAL empty
		t.Fatal(err)
	}
	s.Close()

	// Recreate the pre-truncate WAL: stale records 1..2 plus a new 3.
	w, _, err := openWAL(shardWALPath(dir, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(w, walRecord{Seq: 1, Fields: map[string]string{"user": "a", "item": "1"}})
	appendRecord(w, walRecord{Seq: 2, Fields: map[string]string{"user": "a", "item": "2"}})
	appendRecord(w, walRecord{Seq: 3, Fields: map[string]string{"user": "a", "item": "3"}})
	w.close()

	s2, err := OpenWALShard(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 3 {
		t.Fatalf("count = %d: stale WAL records were re-applied", s2.Count())
	}
	items := map[string]int{}
	s2.ScanOrdered(func(d Document) bool { items[d.Fields["item"]]++; return true })
	for it, n := range items {
		if n != 1 {
			t.Fatalf("item %s applied %d times", it, n)
		}
	}
}

// TestAtomicSnapshotSurvivesFailedRewrite is the torn-write regression
// (satellite: atomic snapshot writes): a failing rewrite leaves the
// previous snapshot byte-identical and no temp litter behind.
func TestAtomicSnapshotSurvivesFailedRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	st := New()
	st.Collection("events").Insert(map[string]string{"user": "u"})
	if err := st.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := writeFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage that must never become the snapshot"))
		return fmt.Errorf("disk full")
	}); err == nil {
		t.Fatal("failed write reported success")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot mutated by failed rewrite:\nbefore %s\nafter  %s", before, after)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

// TestWALShardRejectsTornSnapshot: a truncated snapshot file fails the
// open cleanly instead of silently loading a partial store.
func TestWALShardRejectsTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(map[string]string{"user": "a", "item": "1"})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snap := shardSnapPath(dir, 0)
	b, _ := os.ReadFile(snap)
	os.WriteFile(snap, b[:len(b)/2], 0o644)
	if _, err := OpenWALShard(dir, 0); err == nil {
		t.Fatal("torn snapshot accepted")
	}
}

func TestShardedLogRoutesUserToOneShard(t *testing.T) {
	l, err := OpenShardedLog(ShardedConfig{Shards: 4, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	owners := map[string]int{}
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("enc:user-%d", u)
		for i := 0; i < 5; i++ {
			shard, err := l.Insert(map[string]string{"user": user, "item": fmt.Sprintf("i%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := owners[user]; ok && prev != shard {
				t.Fatalf("user %s split across shards %d and %d", user, prev, shard)
			}
			owners[user] = shard
			if shard != l.ring.Owner(user) {
				t.Fatalf("insert shard %d != Owner %d", shard, l.ring.Owner(user))
			}
		}
	}
	for user, shard := range owners {
		docs := l.FindBy("user", user)
		if len(docs) != 5 {
			t.Fatalf("user %s: %d docs", user, len(docs))
		}
		if got := l.shards[shard].FindBy("user", user); len(got) != 5 {
			t.Fatalf("owner shard %d holds %d docs for %s", shard, len(got), user)
		}
	}
	if l.Count() != 100 {
		t.Fatalf("total count = %d", l.Count())
	}
}

func TestShardedLogScanOrderedPreservesPerUserOrder(t *testing.T) {
	l, err := OpenShardedLog(ShardedConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 30; i++ {
		l.Insert(map[string]string{"user": fmt.Sprintf("u%d", i%7), "item": fmt.Sprintf("i%02d", i)})
	}
	perUser := map[string][]string{}
	l.ScanOrdered(func(d Document) bool {
		perUser[d.Fields["user"]] = append(perUser[d.Fields["user"]], d.Fields["item"])
		return true
	})
	for u, items := range perUser {
		for i := 1; i < len(items); i++ {
			if items[i-1] >= items[i] {
				t.Fatalf("user %s order broken: %v", u, items)
			}
		}
	}
}

func TestShardedLogSnapshotRestoreRoundTrip(t *testing.T) {
	for _, restoreShards := range []int{1, 3, 5} {
		l, err := OpenShardedLog(ShardedConfig{Shards: 3, IndexFields: []string{"user"}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			l.Insert(map[string]string{"user": fmt.Sprintf("u%d", i%8), "item": fmt.Sprintf("i%02d", i)})
		}
		var buf bytes.Buffer
		if err := l.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		l.Close()

		l2, err := OpenShardedLog(ShardedConfig{Shards: restoreShards, IndexFields: []string{"user"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore into %d shards: %v", restoreShards, err)
		}
		if l2.Count() != 40 {
			t.Fatalf("restore into %d shards: count %d", restoreShards, l2.Count())
		}
		for u := 0; u < 8; u++ {
			user := fmt.Sprintf("u%d", u)
			docs := l2.FindBy("user", user)
			if len(docs) != 5 {
				t.Fatalf("restore into %d shards: user %s has %d docs", restoreShards, user, len(docs))
			}
			for i := 1; i < len(docs); i++ {
				if docs[i-1].Fields["item"] >= docs[i].Fields["item"] {
					t.Fatalf("restore into %d shards: user %s order broken", restoreShards, user)
				}
			}
		}
		l2.Close()
	}
}

func TestShardedLogRestoresV1Snapshot(t *testing.T) {
	flat := New()
	col := flat.Collection(eventsCollection)
	for i := 0; i < 12; i++ {
		col.Insert(map[string]string{"user": fmt.Sprintf("u%d", i%3), "item": fmt.Sprintf("i%02d", i)})
	}
	var buf bytes.Buffer
	if err := flat.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	l, err := OpenShardedLog(ShardedConfig{Shards: 4, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Restore(&buf); err != nil {
		t.Fatalf("v1 restore: %v", err)
	}
	if l.Count() != 12 {
		t.Fatalf("v1 restore count = %d", l.Count())
	}
	if docs := l.FindBy("user", "u0"); len(docs) != 4 {
		t.Fatalf("v1 restore: u0 has %d docs", len(docs))
	}
}

func TestShardedLogRestoreRejectsNonEmpty(t *testing.T) {
	l, _ := OpenShardedLog(ShardedConfig{Shards: 2})
	defer l.Close()
	l.Insert(map[string]string{"user": "u"})
	var buf bytes.Buffer
	l.WriteSnapshot(&buf)
	if err := l.Restore(&buf); err == nil {
		t.Fatal("restore into non-empty log accepted")
	}
}

func TestShardedLogDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := ShardedConfig{Shards: 3, Dir: dir, IndexFields: []string{"user"}}
	l, err := OpenShardedLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Durable() {
		t.Fatal("WAL-backed log not durable")
	}
	for i := 0; i < 25; i++ {
		if _, err := l.Insert(map[string]string{"user": fmt.Sprintf("u%d", i%5), "item": fmt.Sprintf("i%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil { // crash-style: no compaction
		t.Fatal(err)
	}

	l2, err := OpenShardedLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != 25 {
		t.Fatalf("replayed count = %d", l2.Count())
	}
	for u := 0; u < 5; u++ {
		if docs := l2.FindBy("user", fmt.Sprintf("u%d", u)); len(docs) != 5 {
			t.Fatalf("u%d has %d docs after replay", u, len(docs))
		}
	}
}

// TestWALShardSyncModeRoundTrip: with per-append fsync on, inserts are
// accepted, flushed, and replayed on reopen exactly like the default
// (page-cache) mode.
func TestWALShardSyncModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(true)
	for i := 0; i < 8; i++ {
		if err := s.Insert(map[string]string{"user": "u", "item": fmt.Sprintf("i%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 8 {
		t.Fatalf("replayed %d events, want 8", s2.Count())
	}
	if docs := s2.FindBy("user", "u"); len(docs) != 8 || docs[0].Fields["item"] != "i0" {
		t.Fatalf("replayed lookup wrong: %d docs", len(docs))
	}
}

// TestShardedLogSyncConfig: ShardedConfig.Sync plumbs through to every
// shard without changing observable behavior.
func TestShardedLogSyncConfig(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenShardedLog(ShardedConfig{Shards: 2, Dir: dir, Sync: true, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Insert(map[string]string{"user": fmt.Sprintf("u%d", i%3), "item": fmt.Sprintf("i%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenShardedLog(ShardedConfig{Shards: 2, Dir: dir, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Count() != 10 {
		t.Fatalf("replayed %d events, want 10", l2.Count())
	}
}
