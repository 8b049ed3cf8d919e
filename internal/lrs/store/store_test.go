package store

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertGetRoundTrip(t *testing.T) {
	c := New().Collection("events")
	id := c.Insert(map[string]string{"user": "u1", "item": "i1"})
	doc, ok := c.Get(id)
	if !ok {
		t.Fatal("document not found after insert")
	}
	if doc.Fields["user"] != "u1" || doc.Fields["item"] != "i1" {
		t.Errorf("fields = %v", doc.Fields)
	}
	if _, ok := c.Get("events/999"); ok {
		t.Error("found a never-inserted document")
	}
}

func TestInsertCopiesFields(t *testing.T) {
	c := New().Collection("events")
	fields := map[string]string{"user": "u1"}
	id := c.Insert(fields)
	fields["user"] = "mutated"
	doc, _ := c.Get(id)
	if doc.Fields["user"] != "u1" {
		t.Error("stored document aliases caller map")
	}
}

func TestGetReturnsClone(t *testing.T) {
	c := New().Collection("events")
	id := c.Insert(map[string]string{"user": "u1"})
	doc, _ := c.Get(id)
	doc.Fields["user"] = "mutated"
	again, _ := c.Get(id)
	if again.Fields["user"] != "u1" {
		t.Error("Get exposed internal storage")
	}
}

func TestFindByWithAndWithoutIndex(t *testing.T) {
	c := New().Collection("events")
	for i := 0; i < 10; i++ {
		c.Insert(map[string]string{"user": "u" + strconv.Itoa(i%3), "item": "i" + strconv.Itoa(i)})
	}
	unindexed := c.FindBy("user", "u1")
	c.EnsureIndex("user")
	indexed := c.FindBy("user", "u1")
	if len(unindexed) != len(indexed) {
		t.Errorf("unindexed found %d, indexed found %d", len(unindexed), len(indexed))
	}
	// i%3 == 1 for i in {1, 4, 7} → 3 documents.
	if len(indexed) != 3 {
		t.Errorf("found %d docs for u1, want 3", len(indexed))
	}
}

func TestIndexMaintainedOnInsertAndDelete(t *testing.T) {
	c := New().Collection("events")
	c.EnsureIndex("user")
	id1 := c.Insert(map[string]string{"user": "u1"})
	c.Insert(map[string]string{"user": "u1"})
	if got := len(c.FindBy("user", "u1")); got != 2 {
		t.Fatalf("found %d, want 2", got)
	}
	if !c.Delete(id1) {
		t.Fatal("delete reported missing document")
	}
	if got := len(c.FindBy("user", "u1")); got != 1 {
		t.Errorf("after delete found %d, want 1", got)
	}
	if c.Delete(id1) {
		t.Error("second delete of same id succeeded")
	}
}

func TestEnsureIndexBackfills(t *testing.T) {
	c := New().Collection("events")
	c.Insert(map[string]string{"user": "u1"})
	c.Insert(map[string]string{"user": "u2"})
	c.EnsureIndex("user")
	if got := len(c.FindBy("user", "u2")); got != 1 {
		t.Errorf("backfilled index found %d, want 1", got)
	}
	c.EnsureIndex("user") // idempotent
	if got := len(c.FindBy("user", "u2")); got != 1 {
		t.Errorf("after duplicate EnsureIndex found %d, want 1", got)
	}
}

func TestScan(t *testing.T) {
	c := New().Collection("events")
	for i := 0; i < 5; i++ {
		c.Insert(map[string]string{"n": strconv.Itoa(i)})
	}
	seen := 0
	c.Scan(func(Document) bool { seen++; return true })
	if seen != 5 {
		t.Errorf("scan visited %d, want 5", seen)
	}
	seen = 0
	c.Scan(func(Document) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("early-stop scan visited %d, want 1", seen)
	}
}

func TestDropCollection(t *testing.T) {
	s := New()
	s.Collection("a").Insert(map[string]string{"x": "1"})
	if err := s.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("a"); !errors.Is(err, ErrNoCollection) {
		t.Fatalf("second drop: err=%v", err)
	}
	if s.Collection("a").Count() != 0 {
		t.Error("recreated collection kept documents")
	}
}

func TestNamesListsCollections(t *testing.T) {
	s := New()
	s.Collection("a")
	s.Collection("b")
	if got := len(s.Names()); got != 2 {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestUniquePrimaryKeysProperty(t *testing.T) {
	c := New().Collection("x")
	f := func(n uint8) bool {
		ids := make(map[string]bool)
		for i := 0; i < int(n); i++ {
			id := c.Insert(map[string]string{})
			if ids[id] {
				return false
			}
			ids[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentInsertFind(t *testing.T) {
	c := New().Collection("events")
	c.EnsureIndex("user")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", g)
			for i := 0; i < 200; i++ {
				c.Insert(map[string]string{"user": user, "item": strconv.Itoa(i)})
				c.FindBy("user", user)
			}
		}(g)
	}
	wg.Wait()
	if c.Count() != 800 {
		t.Errorf("count = %d, want 800", c.Count())
	}
	for g := 0; g < 4; g++ {
		if got := len(c.FindBy("user", fmt.Sprintf("u%d", g))); got != 200 {
			t.Errorf("u%d has %d docs, want 200", g, got)
		}
	}
}

// TestReadsReturnInsertionOrder: every read path returns documents in
// insertion order — an unindexed FindBy and Scan included, not only
// the indexed lookups.
func TestReadsReturnInsertionOrder(t *testing.T) {
	c := New().Collection("events")
	const n = 64
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, c.Insert(map[string]string{"user": "u", "item": strconv.Itoa(i)}))
	}
	ids := func(docs []Document) []string {
		out := make([]string, len(docs))
		for i, d := range docs {
			out[i] = d.ID
		}
		return out
	}
	check := func(path string, got []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s order:\n got %v\nwant %v", path, got, want)
		}
	}
	check("unindexed FindBy", ids(c.FindBy("user", "u")))
	var scanned, ordered []string
	c.Scan(func(d Document) bool { scanned = append(scanned, d.ID); return true })
	check("Scan", scanned)
	c.ScanOrdered(func(d Document) bool { ordered = append(ordered, d.ID); return true })
	check("ScanOrdered", ordered)
	c.EnsureIndex("user")
	check("indexed FindBy", ids(c.FindBy("user", "u")))
}

// TestConcurrentScanOrderedWithWrites: ScanOrdered walks the records it
// read under the lock after releasing it, so inserts and deletes may run during the walk; each walk still sees an insertion-ordered
// prefix of one state. Run under -race.
func TestConcurrentScanOrderedWithWrites(t *testing.T) {
	c := New().Collection("events")
	c.EnsureIndex("user")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The last 100 documents stay live: every insert past them
		// deletes the oldest.
		var ids []string
		for i := 1; i <= 2000; i++ {
			ids = append(ids, c.Insert(map[string]string{"user": "u" + strconv.Itoa(i%5), "n": strconv.Itoa(i)}))
			if len(ids) > 100 {
				c.Delete(ids[len(ids)-101])
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			last := 0
			c.ScanOrdered(func(d Document) bool {
				n, _ := strconv.Atoi(d.Fields["n"])
				if n <= last {
					t.Errorf("walk out of order: %d after %d", n, last)
					return false
				}
				last = n
				c.FindBy("user", d.Fields["user"])
				return true
			})
		}
	}()
	wg.Wait()
}
