package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// shard.go defines the storage unit behind the sharded event log: one
// shard owns a slice of the pseudonym space and is either purely
// in-memory (MemShard) or durable (WALShard: append-only WAL + snapshot,
// where the snapshot is the compaction point and the WAL is replayed on
// restore). Both are Collections underneath, so the snapshot format is
// the store's existing one.

// eventsCollection is the collection name every shard stores events in.
const eventsCollection = "events"

// Shard is one slice of the sharded event log. Implementations are safe
// for concurrent use. The interface is sealed to this package: shard
// durability and the snapshot envelope are storage-layer concerns.
type Shard interface {
	// Insert appends one event. For durable shards the WAL append
	// happens before the in-memory apply, so an insert that returned
	// without error survives a process crash — and an OS crash or power
	// loss too when per-append fsync is on (WALShard.SetSync).
	Insert(fields map[string]string) error
	// FindBy returns documents whose field equals value, in insertion
	// order.
	FindBy(field, value string) []Document
	// ScanOrdered visits every document in insertion order.
	ScanOrdered(fn func(Document) bool)
	// Count returns the number of stored documents.
	Count() int
	// Compact makes the current state the durable baseline (snapshot +
	// empty WAL); a no-op for in-memory shards.
	Compact() error
	// Close releases resources without compacting.
	Close() error

	// snapshotInto serializes the shard's store (sealed to this package:
	// the sharded log composes shard snapshots into its own format).
	snapshotInto(w io.Writer) error
}

// MemShard is the in-memory shard: the store the single-node engine
// always had, confined to one slice of the pseudonym space.
type MemShard struct {
	store *Store
	col   *Collection
}

// NewMemShard creates an empty in-memory shard with secondary indexes on
// the given fields.
func NewMemShard(indexFields ...string) *MemShard {
	s := New()
	col := s.Collection(eventsCollection)
	for _, f := range indexFields {
		col.EnsureIndex(f)
	}
	return &MemShard{store: s, col: col}
}

func (m *MemShard) Insert(fields map[string]string) error {
	m.col.insert(fields)
	return nil
}

func (m *MemShard) FindBy(field, value string) []Document { return m.col.FindBy(field, value) }
func (m *MemShard) ScanOrdered(fn func(Document) bool)    { m.col.ScanOrdered(fn) }
func (m *MemShard) Count() int                            { return m.col.Count() }

func (m *MemShard) Compact() error { return nil }
func (m *MemShard) Close() error   { return nil }

func (m *MemShard) snapshotInto(w io.Writer) error { return m.store.WriteSnapshot(w) }

// shardEnvelope is the on-disk snapshot of one WALShard: the store
// snapshot plus the WAL sequence number it covers. Replay applies only
// records past AppliedSeq, which makes the compaction sequence
// (write snapshot, rename, truncate WAL) crash-safe at every step.
type shardEnvelope struct {
	Version    int             `json:"version"`
	AppliedSeq uint64          `json:"applied_seq"`
	Store      json.RawMessage `json:"store"`
}

// shardEnvelopeVersion versions the shard snapshot envelope.
const shardEnvelopeVersion = 1

// WALShard is the durable shard: a MemShard-shaped collection whose
// inserts are WAL-logged and whose snapshot is the WAL compaction point.
type WALShard struct {
	dir string
	id  int

	mu         sync.Mutex // serializes appends and compaction
	store      *Store
	col        *Collection
	wal        *wal
	seq        uint64 // last sequence number handed out
	appliedSeq uint64 // sequence covered by the on-disk snapshot
}

// shardSnapPath and shardWALPath name one shard's files.
func shardSnapPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.snap", id))
}

func shardWALPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", id))
}

// OpenWALShard opens shard id under dir, restoring from its snapshot
// (if present) and replaying WAL records past the snapshot's
// applied_seq. The directory is created if needed.
func OpenWALShard(dir string, id int, indexFields ...string) (*WALShard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: shard dir: %w", err)
	}
	st := New()
	var appliedSeq uint64
	snapPath := shardSnapPath(dir, id)
	if b, err := os.ReadFile(snapPath); err == nil {
		var env shardEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, fmt.Errorf("store: shard %d snapshot: %w", id, err)
		}
		if env.Version != shardEnvelopeVersion {
			return nil, fmt.Errorf("store: shard %d snapshot version %d unsupported", id, env.Version)
		}
		loaded, err := LoadSnapshot(bytes.NewReader(env.Store))
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", id, err)
		}
		st = loaded
		appliedSeq = env.AppliedSeq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read shard %d snapshot: %w", id, err)
	}

	col := st.Collection(eventsCollection)
	for _, f := range indexFields {
		col.EnsureIndex(f)
	}

	seq := appliedSeq
	w, last, err := openWAL(shardWALPath(dir, id), func(rec walRecord) {
		if rec.Seq <= appliedSeq {
			return // already folded into the snapshot
		}
		col.insert(rec.Fields)
	})
	if err != nil {
		return nil, err
	}
	if last > seq {
		seq = last
	}
	return &WALShard{dir: dir, id: id, store: st, col: col, wal: w, seq: seq, appliedSeq: appliedSeq}, nil
}

// SetSync toggles per-append fsync. Off (the default) the WAL write
// reaches the OS page cache before the insert is acknowledged: the event
// survives a process crash, but an OS crash or power loss may lose the
// tail written since the last flush. On, every append is fsynced before
// the insert returns, extending the guarantee to power loss at the cost
// of one disk flush per event.
func (w *WALShard) SetSync(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wal.fsync = on
}

// Insert appends the event to the WAL, then applies it in memory. An
// append that fails (a short write, a failed fsync) leaves nothing in the
// log and nothing applied: the insert is rejected, and its sequence
// number goes to the next insert.
func (w *WALShard) Insert(fields map[string]string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	packed := pack(fields)
	if err := w.wal.append(walRecord{Seq: w.seq + 1, Fields: fields}, packed); err != nil {
		return err
	}
	w.seq++
	w.col.insertPacked(packed)
	return nil
}

func (w *WALShard) FindBy(field, value string) []Document { return w.col.FindBy(field, value) }
func (w *WALShard) ScanOrdered(fn func(Document) bool)    { w.col.ScanOrdered(fn) }
func (w *WALShard) Count() int                            { return w.col.Count() }

// Compact writes the snapshot (atomically: temp + fsync + rename) with
// applied_seq = the current WAL head, then truncates the WAL. Crash
// windows: before the rename the old snapshot + full WAL restore the
// same state; between rename and truncate the replay skips every record
// at or below applied_seq.
func (w *WALShard) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.compactLocked()
}

func (w *WALShard) compactLocked() error {
	env := shardEnvelope{Version: shardEnvelopeVersion, AppliedSeq: w.seq}
	err := writeFileAtomic(shardSnapPath(w.dir, w.id), func(out io.Writer) error {
		var buf bytes.Buffer
		if err := w.store.WriteSnapshot(&buf); err != nil {
			return err
		}
		env.Store = json.RawMessage(buf.Bytes())
		enc := json.NewEncoder(out)
		return enc.Encode(env)
	})
	if err != nil {
		return err
	}
	w.appliedSeq = w.seq
	return w.wal.reset()
}

// Sync flushes the WAL to stable storage.
func (w *WALShard) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wal.sync()
}

func (w *WALShard) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wal.close()
}

func (w *WALShard) snapshotInto(out io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.store.WriteSnapshot(out)
}
