package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// sharded.go assembles shards into the event log the engine sees: a
// consistent-hash router over the *pseudonym* space. Routing is by the
// user pseudonym, which pins a user's whole history to one shard — the
// only ordering CCO training depends on is per-user event order, so
// per-shard ordered scans reconstruct a training-equivalent stream. The
// shards only ever see det_enc pseudonyms; raw identifiers never reach
// this layer (the adversary suite taps the WAL files to prove it).

// RouteField is the event field the log shards on.
const RouteField = "user"

// ShardedConfig parameterizes a sharded log.
type ShardedConfig struct {
	// Shards is the shard count; values below 1 mean a single shard.
	Shards int
	// Dir, when set, backs every shard with a WAL + snapshot pair under
	// this directory; empty keeps shards in memory. By default the WAL
	// guarantees accepted inserts against process crashes; see Sync.
	Dir string
	// Sync fsyncs every WAL append before the insert is acknowledged,
	// extending durability from process crashes to OS crashes and power
	// loss, at the cost of one disk flush per event. Ignored without Dir.
	Sync bool
	// IndexFields are secondary indexes created on every shard.
	IndexFields []string
}

// ShardedLog is the consistent-hash-sharded event log.
type ShardedLog struct {
	ring   *Ring
	shards []Shard
	dir    string
}

// OpenShardedLog builds the log, opening (and replaying) WAL shards when
// cfg.Dir is set.
func OpenShardedLog(cfg ShardedConfig) (*ShardedLog, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	l := &ShardedLog{ring: NewRing(n), shards: make([]Shard, n), dir: cfg.Dir}
	for i := 0; i < n; i++ {
		if cfg.Dir == "" {
			l.shards[i] = NewMemShard(cfg.IndexFields...)
			continue
		}
		s, err := OpenWALShard(cfg.Dir, i, cfg.IndexFields...)
		if err != nil {
			l.Close()
			return nil, err
		}
		s.SetSync(cfg.Sync)
		l.shards[i] = s
	}
	return l, nil
}

// NumShards returns the shard count.
func (l *ShardedLog) NumShards() int { return len(l.shards) }

// Durable reports whether shards are WAL-backed.
func (l *ShardedLog) Durable() bool { return l.dir != "" }

// Insert routes the event to the shard owning its user pseudonym and
// appends it there, returning the shard index.
func (l *ShardedLog) Insert(fields map[string]string) (int, error) {
	i := l.ring.Owner(fields[RouteField])
	if err := l.shards[i].Insert(fields); err != nil {
		return i, err
	}
	return i, nil
}

// FindBy returns matching documents. A lookup on the routing field goes
// straight to the owning shard; any other field fans out over all shards
// in shard order.
func (l *ShardedLog) FindBy(field, value string) []Document {
	if field == RouteField {
		return l.shards[l.ring.Owner(value)].FindBy(field, value)
	}
	var out []Document
	for _, s := range l.shards {
		out = append(out, s.FindBy(field, value)...)
	}
	return out
}

// ScanOrdered visits every document, shard by shard, each shard in
// insertion order — per-user order is global order because a user lives
// on exactly one shard.
func (l *ShardedLog) ScanOrdered(fn func(Document) bool) {
	for _, s := range l.shards {
		stop := false
		s.ScanOrdered(func(d Document) bool {
			if !fn(d) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// ScanShard visits one shard's documents in insertion order.
func (l *ShardedLog) ScanShard(i int, fn func(Document) bool) {
	l.shards[i].ScanOrdered(fn)
}

// Count sums document counts over all shards.
func (l *ShardedLog) Count() int {
	total := 0
	for _, s := range l.shards {
		total += s.Count()
	}
	return total
}

// Compact snapshots every durable shard and truncates its WAL.
func (l *ShardedLog) Compact() error {
	for i, s := range l.shards {
		if s == nil {
			continue
		}
		if err := s.Compact(); err != nil {
			return fmt.Errorf("store: compact shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard without compacting.
func (l *ShardedLog) Close() error {
	var first error
	for _, s := range l.shards {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardedSnapshotFile is the v2 snapshot: one store snapshot per shard.
// Version 1 (a bare store snapshot) remains loadable via Restore, so
// pre-sharding snapshot files keep working.
type shardedSnapshotFile struct {
	Version int               `json:"version"`
	Shards  []json.RawMessage `json:"shards"`
}

// shardedSnapshotVersion tags the sharded snapshot layout.
const shardedSnapshotVersion = 2

// WriteSnapshot serializes the whole log: shard stores in shard order.
func (l *ShardedLog) WriteSnapshot(w io.Writer) error {
	file := shardedSnapshotFile{Version: shardedSnapshotVersion}
	for i, s := range l.shards {
		var buf bytes.Buffer
		if err := s.snapshotInto(&buf); err != nil {
			return fmt.Errorf("store: snapshot shard %d: %w", i, err)
		}
		file.Shards = append(file.Shards, json.RawMessage(buf.Bytes()))
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("store: write sharded snapshot: %w", err)
	}
	return nil
}

// WriteSnapshotFile persists the snapshot to path atomically (temp +
// fsync + rename), so a crash mid-save leaves the previous file intact.
func (l *ShardedLog) WriteSnapshotFile(path string) error {
	return writeFileAtomic(path, l.WriteSnapshot)
}

// Restore loads a v1 store snapshot or a v2 sharded snapshot and
// re-inserts every event through the router, so a restore may change the
// shard count: documents are re-routed by their current pseudonyms.
// Per-user order is preserved (a user's history sits in one source
// shard, scanned in insertion order). Restore into a non-empty log is an
// error.
func (l *ShardedLog) Restore(r io.Reader) error {
	if l.Count() > 0 {
		return fmt.Errorf("store: restore into non-empty log")
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	insertAll := func(st *Store) error {
		var insErr error
		st.Collection(eventsCollection).ScanOrdered(func(d Document) bool {
			if _, err := l.Insert(d.Fields); err != nil {
				insErr = err
				return false
			}
			return true
		})
		return insErr
	}
	switch probe.Version {
	case snapshotVersion: // v1: one flat store
		st, err := LoadSnapshot(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return insertAll(st)
	case shardedSnapshotVersion:
		var file shardedSnapshotFile
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("store: read sharded snapshot: %w", err)
		}
		for i, raw := range file.Shards {
			st, err := LoadSnapshot(bytes.NewReader(raw))
			if err != nil {
				return fmt.Errorf("store: sharded snapshot shard %d: %w", i, err)
			}
			if err := insertAll(st); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("store: snapshot version %d unsupported", probe.Version)
	}
}
