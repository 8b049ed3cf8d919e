package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// wal.go is the append-only write-ahead log one shard carries next to
// its snapshot. Every insert is framed, checksummed, and sequence-
// numbered before it touches the in-memory collection: on restart the
// shard loads its snapshot (the compaction point) and replays every WAL
// record with a sequence number past the snapshot's applied_seq. A torn
// tail — a partially written final record — fails its CRC or length
// check and is truncated away rather than poisoning the replay.
//
// Durability scope: append writes through the OS page cache, so by
// default an accepted insert survives a *process* crash; an OS crash or
// power loss can lose the un-flushed tail. WALShard.SetSync upgrades to
// per-append fsync, extending the guarantee to power loss. An append that
// fails — a short write, a failed fsync — cuts the file back to where it
// started, so no later acknowledged record sits behind a torn one; if
// even that cut fails, the log refuses appends until it is reopened.
//
// Frame layout, little-endian:
//
//	[4 bytes: payload length][4 bytes: CRC-32 (IEEE) of payload][payload]
//
// The payload is one JSON walRecord, written by hand, same bytes: append
// builds the frame in one reused buffer, walking the packed record the
// collection will keep (its keys sorted as json.Marshal sorts them), when
// every key and value is text encoding/json copies verbatim; any other
// record goes through json.Marshal. Either way the file is byte for byte
// what json.Marshal would make of every record. JSON keeps the format
// inspectable and matches the snapshot idiom; the frame makes truncation
// detectable.

// walMaxRecord bounds one record's payload; LRS events are tiny, so
// anything larger marks a corrupt length prefix.
const walMaxRecord = 1 << 20

// walRecord is one appended event.
type walRecord struct {
	Seq    uint64            `json:"seq"`
	Fields map[string]string `json:"fields"`
}

// walFile is what the log needs of its file: *os.File, or a wrapper
// that fails on cue in tests.
type walFile interface {
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// wal is one shard's open write-ahead log file. Its callers serialize
// every method (WALShard.mu).
type wal struct {
	f      walFile
	path   string
	off    int64  // end of the last intact record: where the next append goes
	fsync  bool   // fsync every append before it returns
	buf    []byte // the frame being built, reused across appends
	broken error  // a failed append could not be cut back; refuse appends
}

// openWAL opens (creating if needed) the log at path, replays every
// intact record into fn, truncates any torn tail, and appends after the
// last intact record. It returns the highest sequence number seen.
func openWAL(path string, fn func(walRecord)) (*wal, uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: read wal: %w", err)
	}
	records, intact := decodeWALRecords(data)
	var last uint64
	for _, rec := range records {
		if rec.Seq > last {
			last = rec.Seq
		}
		fn(rec)
	}
	if intact < int64(len(data)) {
		// Torn tail: drop the partial record so appends start clean.
		if err := f.Truncate(intact); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	return &wal{f: f, path: path, off: intact}, last, nil
}

// decodeWALRecords parses every intact record from b, returning the
// records and the byte offset of the first torn or corrupt frame (equal
// to len(b) when the log is clean). It never panics on hostile input.
func decodeWALRecords(b []byte) ([]walRecord, int64) {
	var records []walRecord
	var off int64
	for {
		rest := b[off:]
		if len(rest) < 8 {
			return records, off
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n == 0 || n > walMaxRecord || int(n) > len(rest)-8 {
			return records, off
		}
		sum := binary.LittleEndian.Uint32(rest[4:8])
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, off
		}
		records = append(records, rec)
		off += int64(8 + n)
	}
}

// append frames and writes one record with a single write (and, with
// fsync on, flushes it); packed is pack(rec.Fields), which holds the
// fields in the key order the JSON needs. On any failure it truncates
// the file back to the offset the append started at, so the next append
// lands directly after the last good record; a log that cannot be cut
// back refuses every later append.
func (w *wal) append(rec walRecord, packed string) error {
	if w.broken != nil {
		return fmt.Errorf("store: wal refuses appends until reopened: %w", w.broken)
	}
	frame, err := w.frame(rec, packed)
	if err != nil {
		return err
	}
	if err := w.write(frame); err != nil {
		if terr := w.f.Truncate(w.off); terr != nil {
			w.broken = terr
		}
		return err
	}
	w.off += int64(len(frame))
	return nil
}

// write puts one frame at the end of the log and, with fsync on, flushes it.
func (w *wal) write(frame []byte) error {
	if _, err := w.f.WriteAt(frame, w.off); err != nil {
		return fmt.Errorf("store: append wal record: %w", err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync wal append: %w", err)
		}
	}
	return nil
}

// frame builds rec's frame in w.buf: the header, then the payload
// json.Marshal(rec) would produce. packed is pack(rec.Fields).
func (w *wal) frame(rec walRecord, packed string) ([]byte, error) {
	b := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	var ok bool
	if rec.Fields != nil { // json.Marshal writes a nil map as null
		b, ok = appendRecordJSON(b, rec.Seq, packed)
	}
	if !ok {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("store: encode wal record: %w", err)
		}
		b = append(b[:8], payload...)
	}
	w.buf = b
	payload := b[8:]
	if len(payload) > walMaxRecord {
		return nil, fmt.Errorf("store: wal record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b, nil
}

// appendRecordJSON appends json.Marshal's bytes for a record of seq
// whose fields pack packed — seq, then the fields, whose keys pack has
// sorted — and reports true. When a key or value holds a byte
// encoding/json would escape, it reports false and the caller marshals
// instead.
func appendRecordJSON(b []byte, seq uint64, packed string) ([]byte, bool) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"fields":{`...)
	for p := packed; p != ""; {
		if p != packed {
			b = append(b, ',')
		}
		var k, v string
		k, p = nextString(p)
		v, p = nextString(p)
		if !verbatim(k) || !verbatim(v) {
			return b, false
		}
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, `":"`...)
		b = append(b, v...)
		b = append(b, '"')
	}
	return append(b, "}}"...), true
}

// verbatim reports whether encoding/json writes s between its quotes as
// it is: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func verbatim(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// reset truncates the log to empty — called right after a snapshot is
// durably renamed into place, making the snapshot the new replay base.
// A crash between the rename and this truncate is safe: replay skips
// records at or below the snapshot's applied_seq.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: reset wal: %w", err)
	}
	w.off = 0
	return nil
}

// sync flushes the log to stable storage.
func (w *wal) sync() error { return w.f.Sync() }

// close releases the file handle.
func (w *wal) close() error { return w.f.Close() }
