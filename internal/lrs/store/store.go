// Package store is the in-memory document store backing the legacy
// recommendation system, standing in for the MongoDB instance that Harness
// uses to persist engine data and inputs pending processing (§7 of the
// PProx paper): feedback events received via post requests are stored here
// until the periodic training job folds them into the model.
//
// It is a deliberately small but real database: named collections of
// documents with string fields, auto-assigned primary keys, optional
// secondary indexes, and atomic scans — everything the Universal
// Recommender substrate needs, nothing more. A collection keeps each
// document as one packed record (its sequence number and its fields
// encoded into one string) in a slice in insertion order; the Document
// a reader receives is built from the record when it is read.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ErrNoCollection reports access to a collection that was never created.
var ErrNoCollection = errors.New("store: no such collection")

// Document is one stored record: an assigned primary key plus string
// fields.
type Document struct {
	ID     string
	Fields map[string]string
}

// Store is a set of named collections.
type Store struct {
	mu          sync.Mutex
	collections map[string]*Collection
}

// New creates an empty store.
func New() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns the named collection, creating it if needed.
func (s *Store) Collection(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		c = newCollection(name)
		s.collections[name] = c
	}
	return c
}

// Drop removes a collection and its contents. Dropping an absent
// collection returns ErrNoCollection.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.collections[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoCollection, name)
	}
	delete(s.collections, name)
	return nil
}

// Names lists existing collections.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	return names
}

// Collection is one document collection with optional secondary indexes.
//
// Documents are records in one slice, in insertion order, so their
// sequence numbers strictly increase along it: Get binary-searches the
// slice and every read returns insertion order. A deleted document stays
// in place as a tombstone, so an index position never moves. Records are
// immutable once appended; Delete replaces the slice rather than write
// into it, which lets ScanOrdered walk a slice it read under the lock
// after releasing it.
type Collection struct {
	name string

	mu      sync.RWMutex
	recs    []record
	live    int                           // records that are not tombstones
	indexes map[string]map[string][]int32 // field → value → positions in recs
	nextID  uint64
}

// record is one stored document: the n of its primary key
// "<collection>/<n>" and its fields packed by pack.
type record struct {
	seq    uint64
	fields string
}

// tombstone is the fields of a deleted record. pack never returns it: a
// packed record is empty or starts with a complete uvarint, and a lone
// 0x80 is an unfinished one.
const tombstone = "\x80"

func newCollection(name string) *Collection {
	return &Collection{name: name, indexes: make(map[string]map[string][]int32)}
}

// pack encodes fields as one string: for each key in sorted order, the
// key's length as a uvarint, the key, the value's length as a uvarint,
// the value.
func pack(fields map[string]string) string {
	var keyBuf [8]string
	keys := keyBuf[:0]
	size := 0
	for k, v := range fields {
		keys = append(keys, k)
		size += uvarintLen(len(k)) + len(k) + uvarintLen(len(v)) + len(v)
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, k := range keys {
		v := fields[k]
		b.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(k))))
		b.WriteString(k)
		b.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(v))))
		b.WriteString(v)
	}
	return b.String()
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// nextString splits one length-prefixed string off the front of p.
func nextString(p string) (s, rest string) {
	var n, shift uint
	i := 0
	for ; i < len(p); i++ {
		n |= uint(p[i]&0x7f) << shift
		shift += 7
		if p[i] < 0x80 {
			i++
			break
		}
	}
	p = p[i:]
	return p[:n], p[n:]
}

// lookup returns the value a packed record holds for key.
func lookup(p, key string) (string, bool) {
	for p != "" {
		var k, v string
		k, p = nextString(p)
		v, p = nextString(p)
		if k == key {
			return v, true
		}
		if k > key {
			break // keys are sorted
		}
	}
	return "", false
}

// unpack decodes a packed record into a map; the keys and values share
// the record's bytes.
func unpack(p string) map[string]string {
	n := 0
	for q := p; q != ""; n++ {
		_, q = nextString(q)
		_, q = nextString(q)
	}
	m := make(map[string]string, n)
	for p != "" {
		var k, v string
		k, p = nextString(p)
		v, p = nextString(p)
		m[k] = v
	}
	return m
}

// appendID appends the primary key of the record with sequence seq.
func (c *Collection) appendID(b []byte, seq uint64) []byte {
	b = append(b, c.name...)
	b = append(b, '/')
	return strconv.AppendUint(b, seq, 10)
}

// id returns the primary key of the record with sequence seq, with one
// allocation.
func (c *Collection) id(seq uint64) string {
	var buf [48]byte
	return string(c.appendID(buf[:0], seq))
}

// document builds the Document for one record.
func (c *Collection) document(r record) Document {
	return Document{ID: c.id(r.seq), Fields: unpack(r.fields)}
}

// documentsAt builds the Documents at the given positions; their IDs are
// cut from one string.
func (c *Collection) documentsAt(pos []int32) []Document {
	if len(pos) == 0 {
		return nil
	}
	size := 0
	for _, p := range pos {
		size += c.idLen(c.recs[p].seq)
	}
	var ids strings.Builder
	ids.Grow(size)
	var buf [48]byte
	for _, p := range pos {
		ids.Write(c.appendID(buf[:0], c.recs[p].seq))
	}
	all := ids.String()
	out := make([]Document, len(pos))
	for i, p := range pos {
		r := c.recs[p]
		n := c.idLen(r.seq)
		out[i] = Document{ID: all[:n], Fields: unpack(r.fields)}
		all = all[n:]
	}
	return out
}

// idLen is the length of the primary key of the record with sequence seq.
func (c *Collection) idLen(seq uint64) int {
	n := len(c.name) + 2
	for ; seq >= 10; seq /= 10 {
		n++
	}
	return n
}

// parseID returns the sequence number of a primary key of this
// collection: "<name>/<n>" with n ≥ 1 written without leading zeros.
func (c *Collection) parseID(id string) (uint64, bool) {
	n, ok := strings.CutPrefix(id, c.name+"/")
	if !ok || n == "" || n[0] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(n, 10, 64)
	return seq, err == nil
}

// position returns where the live record with primary key id sits.
func (c *Collection) position(id string) (int, bool) {
	seq, ok := c.parseID(id)
	if !ok {
		return 0, false
	}
	i, found := slices.BinarySearchFunc(c.recs, seq, func(r record, seq uint64) int {
		switch {
		case r.seq < seq:
			return -1
		case r.seq > seq:
			return 1
		}
		return 0
	})
	if !found || c.recs[i].fields == tombstone {
		return 0, false
	}
	return i, true
}

// EnsureIndex creates a secondary index on a field; existing documents are
// indexed immediately. Creating an existing index is a no-op.
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[field]; ok {
		return
	}
	idx := make(map[string][]int32)
	for i, r := range c.recs {
		if r.fields == tombstone {
			continue
		}
		if v, ok := lookup(r.fields, field); ok {
			idx[v] = append(idx[v], int32(i))
		}
	}
	c.indexes[field] = idx
}

// Insert stores a document with an auto-assigned primary key and returns
// the key. Field maps are copied.
func (c *Collection) Insert(fields map[string]string) string {
	return c.id(c.insert(fields))
}

// insert is Insert without building the key: shards never read it.
func (c *Collection) insert(fields map[string]string) uint64 {
	return c.insertPacked(pack(fields))
}

// insertPacked is insert of a document its caller has already packed.
func (c *Collection) insertPacked(packed string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	c.appendLocked(record{seq: c.nextID, fields: packed})
	return c.nextID
}

// appendLocked appends a record and indexes it; the caller holds c.mu or
// has not shared the collection yet. An index key is cut from the
// record, so it holds no second copy of the value.
func (c *Collection) appendLocked(r record) {
	pos := int32(len(c.recs))
	c.recs = append(c.recs, r)
	c.live++
	for field, idx := range c.indexes {
		if v, ok := lookup(r.fields, field); ok {
			idx[v] = append(idx[v], pos)
		}
	}
}

// Get returns the document with the given primary key.
func (c *Collection) Get(id string) (Document, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.position(id)
	if !ok {
		return Document{}, false
	}
	return c.document(c.recs[i]), true
}

// FindBy returns all documents whose field equals value, in insertion
// order, using the secondary index when one exists and a full scan
// otherwise. Without an index a document lacking the field matches the
// empty value; an index holds only documents that have the field.
func (c *Collection) FindBy(field, value string) []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if idx, ok := c.indexes[field]; ok {
		return c.documentsAt(idx[value])
	}
	var pos []int32
	for i, r := range c.recs {
		if r.fields == tombstone {
			continue
		}
		if v, _ := lookup(r.fields, field); v == value {
			pos = append(pos, int32(i))
		}
	}
	return c.documentsAt(pos)
}

// Delete removes a document by primary key; it reports whether the
// document existed.
func (c *Collection) Delete(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.position(id)
	if !ok {
		return false
	}
	fields := c.recs[i].fields
	recs := slices.Clone(c.recs)
	recs[i].fields = tombstone
	c.recs = recs
	c.live--
	for field, idx := range c.indexes {
		v, ok := lookup(fields, field)
		if !ok {
			continue
		}
		pos := slices.DeleteFunc(idx[v], func(p int32) bool { return p == int32(i) })
		if len(pos) == 0 {
			delete(idx, v)
		} else {
			idx[v] = pos
		}
	}
	return true
}

// Count returns the number of stored documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// Scan visits every document in insertion order until fn returns false.
// Each Document is built for the call, so fn may retain it; mutating the
// collection from within fn deadlocks, as with any cursor.
func (c *Collection) Scan(fn func(Document) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.recs {
		if r.fields != tombstone && !fn(c.document(r)) {
			return
		}
	}
}

// ScanOrdered visits every document in insertion order (ascending
// primary key) until fn returns false. The records are read under the
// read lock, then fn runs unlocked, so fn may query or insert into the
// collection. The deterministic order is what shard replay and the
// training job need: CCO downsampling depends on per-user event order.
func (c *Collection) ScanOrdered(fn func(Document) bool) {
	c.mu.RLock()
	recs := c.recs
	c.mu.RUnlock()
	for _, r := range recs {
		if r.fields != tombstone && !fn(c.document(r)) {
			return
		}
	}
}
