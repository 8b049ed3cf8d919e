package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"
)

// marshalFrame is the frame as it was built before the payload was
// written by hand: the header, then json.Marshal of the record.
func marshalFrame(t *testing.T, rec walRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// appendRecord appends rec as a shard does, its fields packed beside it.
func appendRecord(w *wal, rec walRecord) error {
	return w.append(rec, pack(rec.Fields))
}

// packFields encodes a field map as the fuzz target's input: for each
// field a length byte and the key, then a length byte and the value.
func packFields(fields map[string]string) []byte {
	var b []byte
	for k, v := range fields {
		b = append(append(b, byte(len(k))), k...)
		b = append(append(b, byte(len(v))), v...)
	}
	return b
}

// unpackFields is packFields' inverse over arbitrary bytes: a length
// running past the end takes what is left, and empty input is the nil
// map.
func unpackFields(b []byte) map[string]string {
	if len(b) == 0 {
		return nil
	}
	next := func() string {
		n := 0
		if len(b) > 0 {
			n, b = int(b[0]), b[1:]
		}
		n = min(n, len(b))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	fields := map[string]string{}
	for len(b) > 0 {
		k := next()
		fields[k] = next()
	}
	return fields
}

// FuzzWALFrame: for any field map — non-ASCII, invalid UTF-8, HTML
// characters, control bytes, empty keys and values — the frame append
// builds is byte for byte the one json.Marshal builds, and
// decodeWALRecords reads back the record encoding/json would.
func FuzzWALFrame(f *testing.F) {
	for i, d := range goldenDocs() {
		f.Add(uint64(i+1), packFields(d))
	}
	for _, d := range []map[string]string{
		{"": ""},
		{"user": "\xff\xfe", "item": "\x00\x1f\x7f"},
		{"user": "line\u2028sep\u2029", "é": "ü"},
		{"<k>": "a&b", `q"`: `b\s`},
	} {
		f.Add(uint64(math.MaxUint64), packFields(d))
	}
	f.Add(uint64(0), []byte{})
	var w wal
	f.Fuzz(func(t *testing.T, seq uint64, data []byte) {
		rec := walRecord{Seq: seq, Fields: unpackFields(data)}
		got, err := w.frame(rec, pack(rec.Fields))
		if err != nil {
			t.Fatal(err)
		}
		want := marshalFrame(t, rec)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame of %q:\n got %q\nwant %q", rec.Fields, got, want)
		}
		recs, intact := decodeWALRecords(got)
		if len(recs) != 1 || intact != int64(len(got)) {
			t.Fatalf("decoded %d records, %d of %d bytes", len(recs), intact, len(got))
		}
		var back walRecord
		if err := json.Unmarshal(want[8:], &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs[0], back) {
			t.Fatalf("round trip: decoded %+v, encoding/json reads %+v", recs[0], back)
		}
	})
}

// errInjected is the failure faultyFile reports.
var errInjected = errors.New("injected fault")

// faultyFile wraps a log's file: a short write puts the first half of
// the frame on disk and fails, and Sync or Truncate fail when asked to.
type faultyFile struct {
	walFile
	shortWrite, failSync, failTruncate bool
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.shortWrite {
		n, _ := f.walFile.WriteAt(p[:len(p)/2], off)
		return n, errInjected
	}
	return f.walFile.WriteAt(p, off)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// event is a one-event field map for the failure tests.
func event(item string) map[string]string {
	return map[string]string{"user": "enc:u1", "item": item}
}

// walSeqs returns the sequence numbers in a shard's WAL file.
func walSeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	b, err := os.ReadFile(shardWALPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeWALRecords(b)
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	return seqs
}

// reopenItems closes s, reopens its shard and returns the items it holds
// in order.
func reopenItems(t *testing.T, s *WALShard, dir string) []string {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var items []string
	s2.ScanOrdered(func(d Document) bool {
		items = append(items, d.Fields["item"])
		return true
	})
	return items
}

// TestWALShardFailedAppendLeavesNoTrace: an append that fails after half
// its frame reached the file, or after the whole frame when its fsync
// fails, is cut back out. The next insert lands right after the last good
// record under the failed one's sequence number, and a reopen replays
// every acknowledged event and not the failed one.
func TestWALShardFailedAppendLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultyFile
	}{
		{"short-write", faultyFile{shortWrite: true}},
		{"failed-fsync", faultyFile{failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenWALShard(dir, 0, "user")
			if err != nil {
				t.Fatal(err)
			}
			s.SetSync(true)
			if err := s.Insert(event("good-1")); err != nil {
				t.Fatal(err)
			}
			ff := tc.fault
			ff.walFile = s.wal.f
			s.wal.f = &ff
			if err := s.Insert(event("failed")); !errors.Is(err, errInjected) {
				t.Fatalf("faulty insert returned %v, want the injected fault", err)
			}
			ff.shortWrite, ff.failSync = false, false
			if err := s.Insert(event("good-2")); err != nil {
				t.Fatal(err)
			}
			if got, want := walSeqs(t, dir), []uint64{1, 2}; !reflect.DeepEqual(got, want) {
				t.Errorf("WAL holds sequence numbers %v, want %v", got, want)
			}
			if got, want := reopenItems(t, s, dir), []string{"good-1", "good-2"}; !reflect.DeepEqual(got, want) {
				t.Errorf("reopened shard holds %v, want %v", got, want)
			}
		})
	}
}

// TestWALShardRefusesAppendsAfterFailedRollback: when a failed append
// cannot be cut back either, the shard refuses every later insert rather
// than writing behind the torn frame; a reopen drops the torn tail and
// takes inserts again.
func TestWALShardRefusesAppendsAfterFailedRollback(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(event("good-1")); err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{walFile: s.wal.f, shortWrite: true, failTruncate: true}
	s.wal.f = ff
	if err := s.Insert(event("failed")); err == nil {
		t.Fatal("faulty insert succeeded")
	}
	ff.shortWrite, ff.failTruncate = false, false
	if err := s.Insert(event("refused")); err == nil {
		t.Fatal("insert after a failed rollback succeeded")
	}
	if s.Count() != 1 {
		t.Fatalf("shard holds %d events, want 1", s.Count())
	}
	if got, want := reopenItems(t, s, dir), []string{"good-1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened shard holds %v, want %v", got, want)
	}
	s2, err := OpenWALShard(dir, 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Insert(event("good-2")); err != nil {
		t.Fatalf("reopened shard refuses inserts: %v", err)
	}
	if got, want := reopenItems(t, s2, dir), []string{"good-1", "good-2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen and insert the shard holds %v, want %v", got, want)
	}
}

// TestWALShardInsertAllocCeiling pins the heap allocations of one durable
// insert of an event shaped as the engine stores a post, in the style of
// the root package's TestAllocationCeilings: the ceiling is the recorded
// baseline × 1.25, rounded down. The frame is built in a reused buffer,
// so what is left is the packed record the collection keeps.
func TestWALShardInsertAllocCeiling(t *testing.T) {
	const baseline = 1
	s, err := OpenWALShard(t.TempDir(), 0, "user")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fields := map[string]string{"user": "ml-user-00042", "item": "ml-movie-000042", "payload": "3.5", "type": ""}
	var opErr error
	got := testing.AllocsPerRun(200, func() {
		if err := s.Insert(fields); err != nil && opErr == nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	ceiling := math.Floor(baseline * 1.25)
	if got > ceiling {
		t.Errorf("a durable insert allocates %.0f times, ceiling %.0f (baseline %d)", got, ceiling, baseline)
	}
	t.Logf("durable insert: %.0f allocs (ceiling %.0f)", got, ceiling)
}
