package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// modelDoc is one document of the reference model.
type modelDoc struct {
	id     string
	fields map[string]string
}

// collectionModel is the reference a Collection must agree with: a slice
// of maps in insertion order, deletion by removal, and the set of
// indexed fields (an index holds only documents that have the field).
type collectionModel struct {
	name    string
	docs    []modelDoc
	nextID  uint64
	indexed map[string]bool
}

func (m *collectionModel) insert(fields map[string]string) string {
	m.nextID++
	id := m.name + "/" + strconv.FormatUint(m.nextID, 10)
	cp := make(map[string]string, len(fields))
	for k, v := range fields {
		cp[k] = v
	}
	m.docs = append(m.docs, modelDoc{id: id, fields: cp})
	return id
}

func (m *collectionModel) delete(id string) bool {
	for i, d := range m.docs {
		if d.id == id {
			m.docs = append(m.docs[:i], m.docs[i+1:]...)
			return true
		}
	}
	return false
}

func (m *collectionModel) get(id string) (modelDoc, bool) {
	for _, d := range m.docs {
		if d.id == id {
			return d, true
		}
	}
	return modelDoc{}, false
}

func (m *collectionModel) findBy(field, value string) []modelDoc {
	var out []modelDoc
	for _, d := range m.docs {
		v, has := d.fields[field]
		if v == value && (has || !m.indexed[field]) {
			out = append(out, d)
		}
	}
	return out
}

// sameDocs reports whether got equals the model's documents, in order.
func sameDocs(got []Document, want []modelDoc) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].id || !reflect.DeepEqual(got[i].Fields, want[i].fields) {
			return false
		}
	}
	return true
}

// TestCollectionMatchesModel drives a Collection and the reference model
// with the same seeded stream of operations — inserts, deletes,
// indexes created mid-stream, reads of every kind and snapshot round
// trips — and requires identical answers at every step. A failure names
// the seed and step that reproduce it.
func TestCollectionMatchesModel(t *testing.T) {
	keys := []string{"user", "item", "type", "idem", ""}
	values := []string{"", "u1", "u2", "u3", "i1", "é\"\n", "a-long-value-" + string(make([]byte, 200))}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			s      *Store
			c      *Collection
			m      *collectionModel
			issued []string
		)
		fresh := func() {
			s = New()
			c = s.Collection("events")
			m = &collectionModel{name: "events", indexed: map[string]bool{}}
			issued = nil
		}
		fresh()
		// randomID is an issued ID, one not issued yet, or a non-canonical
		// spelling of an issued one, which must not find it.
		randomID := func() string {
			k := rng.Intn(10)
			if len(issued) == 0 || k == 6 {
				return "events/" + strconv.FormatUint(m.nextID+1+uint64(rng.Intn(3)), 10)
			}
			id := issued[rng.Intn(len(issued))]
			n := strings.TrimPrefix(id, "events/")
			switch k {
			case 7:
				return "events/0" + n
			case 8:
				return []string{"Events/", "events/+", "/", "events"}[rng.Intn(4)] + n
			case 9:
				return id + []string{" ", "0", "/", "x"}[rng.Intn(4)]
			}
			return id
		}
		for step := 0; step < 1500; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
			}
			switch op := rng.Intn(100); {
			case op < 40:
				fields := map[string]string{}
				for n := rng.Intn(5); n > 0; n-- {
					fields[keys[rng.Intn(len(keys))]] = values[rng.Intn(len(values))]
				}
				got, want := c.Insert(fields), m.insert(fields)
				if got != want {
					fail("Insert returned %q, want %q", got, want)
				}
				issued = append(issued, got)
			case op < 48:
				id := randomID()
				if got, want := c.Delete(id), m.delete(id); got != want {
					fail("Delete(%q) = %v, want %v", id, got, want)
				}
			case op < 51:
				fresh()
			case op < 54:
				field := keys[rng.Intn(len(keys))]
				c.EnsureIndex(field)
				m.indexed[field] = true
			case op < 68:
				id := randomID()
				got, ok := c.Get(id)
				want, wantOK := m.get(id)
				if ok != wantOK || (ok && !sameDocs([]Document{got}, []modelDoc{want})) {
					fail("Get(%q) = %v %v, want %v %v", id, got, ok, want, wantOK)
				}
			case op < 85:
				field, value := keys[rng.Intn(len(keys))], values[rng.Intn(len(values))]
				if got, want := c.FindBy(field, value), m.findBy(field, value); !sameDocs(got, want) {
					fail("FindBy(%q, %q) = %v, want %v (indexed %v)", field, value, got, want, m.indexed[field])
				}
			case op < 95:
				var got []Document
				c.ScanOrdered(func(d Document) bool { got = append(got, d); return true })
				if !sameDocs(got, m.docs) {
					fail("ScanOrdered = %v, want %v", got, m.docs)
				}
				got = got[:0]
				c.Scan(func(d Document) bool { got = append(got, d); return true })
				if !sameDocs(got, m.docs) {
					fail("Scan = %v, want %v", got, m.docs)
				}
			default:
				var buf bytes.Buffer
				if err := s.WriteSnapshot(&buf); err != nil {
					fail("WriteSnapshot: %v", err)
				}
				restored, err := LoadSnapshot(&buf)
				if err != nil {
					fail("LoadSnapshot: %v", err)
				}
				s, c = restored, restored.Collection("events")
			}
			if got, want := c.Count(), len(m.docs); got != want {
				fail("Count = %d, want %d", got, want)
			}
		}
	}
}

// TestPackRoundTrip: a packed record decodes to the fields it was packed
// from, lengths past one uvarint byte included, and lookup finds each
// key and no other.
func TestPackRoundTrip(t *testing.T) {
	long := string(bytes.Repeat([]byte("x"), 300))
	for _, fields := range []map[string]string{
		{},
		{"": ""},
		{"user": "u", "item": "", "payload": "4.0", "type": ""},
		{long: long, "a": "\x80", "\x80": "b"},
	} {
		p := pack(fields)
		if p == tombstone {
			t.Fatalf("pack(%v) is the tombstone", fields)
		}
		if got := unpack(p); !reflect.DeepEqual(got, fields) {
			t.Errorf("unpack(pack(%v)) = %v", fields, got)
		}
		for k, v := range fields {
			if got, ok := lookup(p, k); !ok || got != v {
				t.Errorf("lookup(%q) = %q %v, want %q", k, got, ok, v)
			}
		}
		if _, ok := lookup(p, "absent"); ok {
			t.Errorf("lookup found an absent key in %v", fields)
		}
	}
}

// TestDeletedDocumentsStayDeleted: a tombstone would parse as one field
// with an empty name and value, so every read path skips it explicitly.
// Each path is asked for exactly that field and value.
func TestDeletedDocumentsStayDeleted(t *testing.T) {
	s := New()
	c := s.Collection("events")
	keep := c.Insert(map[string]string{"": ""})
	gone := c.Insert(map[string]string{"user": "u"})
	c.Delete(gone)
	check := func(path string, docs []Document) {
		t.Helper()
		if len(docs) != 1 || docs[0].ID != keep {
			t.Errorf("%s returned %v, want only %s", path, docs, keep)
		}
	}
	check("unindexed FindBy", c.FindBy("", ""))
	c.EnsureIndex("")
	check("indexed FindBy", c.FindBy("", ""))
	var scanned, ordered []Document
	c.Scan(func(d Document) bool { scanned = append(scanned, d); return true })
	check("Scan", scanned)
	c.ScanOrdered(func(d Document) bool { ordered = append(ordered, d); return true })
	check("ScanOrdered", ordered)
	if _, found := c.Get(gone); found {
		t.Error("Get found a deleted document")
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"docs":[{"id":"events/1","fields":{"":""}}]`) {
		t.Errorf("snapshot holds a deleted document: %s", buf.String())
	}
}
