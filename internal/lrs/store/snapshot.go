package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// snapshot.go gives the document store durability: the MongoDB instance it
// substitutes persists engine inputs across restarts (§7), so a Harness
// operator can stop and resume without losing pending feedback. Snapshots
// are JSON streams: deterministic, diffable, and independent of the
// in-memory layout.

// snapshotFile is the serialized form of a whole store.
type snapshotFile struct {
	Version     int                  `json:"version"`
	Collections []collectionSnapshot `json:"collections"`
}

type collectionSnapshot struct {
	Name    string             `json:"name"`
	Indexes []string           `json:"indexes"`
	NextID  uint64             `json:"next_id"`
	Docs    []documentSnapshot `json:"docs"`
}

type documentSnapshot struct {
	ID     string            `json:"id"`
	Fields map[string]string `json:"fields"`
}

const snapshotVersion = 1

// WriteSnapshot serializes the whole store. Collections and documents are
// emitted in sorted order so identical states produce identical bytes.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.Lock()
	collections := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		collections = append(collections, c)
	}
	s.mu.Unlock()
	sort.Slice(collections, func(i, j int) bool { return collections[i].name < collections[j].name })

	file := snapshotFile{Version: snapshotVersion}
	for _, c := range collections {
		file.Collections = append(file.Collections, c.snapshot())
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	return nil
}

func (c *Collection) snapshot() collectionSnapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := collectionSnapshot{Name: c.name, NextID: c.nextID}
	for field := range c.indexes {
		snap.Indexes = append(snap.Indexes, field)
	}
	sort.Strings(snap.Indexes)
	for _, r := range c.recs {
		if r.fields != tombstone {
			snap.Docs = append(snap.Docs, documentSnapshot{ID: c.id(r.seq), Fields: unpack(r.fields)})
		}
	}
	sort.Slice(snap.Docs, func(i, j int) bool { return snap.Docs[i].ID < snap.Docs[j].ID })
	return snap
}

// WriteSnapshotFile persists the snapshot to path atomically: the bytes
// go to a temp file in the same directory, are fsynced, and the temp
// file is renamed over path. A crash at any point leaves either the old
// complete snapshot or the new one — never a torn file on the restore
// path.
func (s *Store) WriteSnapshotFile(path string) error {
	return writeFileAtomic(path, s.WriteSnapshot)
}

// writeFileAtomic streams write into a same-directory temp file, syncs
// it, and renames it over path. On any failure the temp file is removed
// and path is left untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: sync snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("store: close snapshot: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot into a fresh store; it fails without side
// effects on malformed input. Besides undecodable JSON and an unknown
// version, a snapshot is malformed when a collection appears twice or a
// document ID is not "<collection>/<n>" (n ≥ 1, no leading zeros) or
// repeats.
func LoadSnapshot(r io.Reader) (*Store, error) {
	var file snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if file.Version != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d unsupported", file.Version)
	}
	s := New()
	for _, cs := range file.Collections {
		if _, dup := s.collections[cs.Name]; dup {
			return nil, fmt.Errorf("store: read snapshot: collection %q repeats", cs.Name)
		}
		c := s.Collection(cs.Name)
		if err := c.load(cs); err != nil {
			return nil, fmt.Errorf("store: read snapshot: collection %q: %w", cs.Name, err)
		}
	}
	return s, nil
}

// load fills a fresh collection from its snapshot. Snapshots sort docs
// lexicographically by ID ("events/10" < "events/2") for byte
// determinism; records go back in insertion order (numeric sequence), so
// reads return a restored user's history in the order it was posted.
func (c *Collection) load(cs collectionSnapshot) error {
	recs := make([]record, len(cs.Docs))
	for i, d := range cs.Docs {
		seq, ok := c.parseID(d.ID)
		if !ok {
			return fmt.Errorf("malformed document ID %q", d.ID)
		}
		recs[i] = record{seq: seq, fields: pack(d.Fields)}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for i := 1; i < len(recs); i++ {
		if recs[i].seq == recs[i-1].seq {
			return fmt.Errorf("document ID %q repeats", c.id(recs[i].seq))
		}
	}
	for _, r := range recs {
		c.appendLocked(r)
	}
	// A next_id that lags the documents would hand out their IDs again.
	c.nextID = cs.NextID
	if n := len(recs); n > 0 && recs[n-1].seq > c.nextID {
		c.nextID = recs[n-1].seq
	}
	for _, field := range cs.Indexes {
		c.EnsureIndex(field)
	}
	return nil
}
