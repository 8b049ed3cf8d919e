package store

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func buildStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	events := s.Collection("events")
	events.EnsureIndex("user")
	for i := 0; i < 20; i++ {
		events.Insert(map[string]string{
			"user": "u" + strconv.Itoa(i%4),
			"item": "i" + strconv.Itoa(i),
		})
	}
	items := s.Collection("items")
	items.Insert(map[string]string{"name": "catalog-entry"})
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildStore(t)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got := restored.Collection("events").Count(); got != 20 {
		t.Errorf("restored events = %d, want 20", got)
	}
	if got := restored.Collection("items").Count(); got != 1 {
		t.Errorf("restored items = %d", got)
	}
	// Secondary indexes survive.
	if got := len(restored.Collection("events").FindBy("user", "u1")); got != 5 {
		t.Errorf("indexed lookup after restore = %d, want 5", got)
	}
	// Primary-key allocation continues without collisions.
	id := restored.Collection("events").Insert(map[string]string{"user": "new"})
	if _, exists := restored.Collection("events").Get(id); !exists {
		t.Fatal("insert after restore failed")
	}
	if restored.Collection("events").Count() != 21 {
		t.Error("insert after restore collided with restored document")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s := buildStore(t)
	var a, b bytes.Buffer
	if err := s.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical state produced different snapshots")
	}
}

func TestLoadSnapshotRejectsMalformed(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
	if _, err := LoadSnapshot(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("unknown snapshot version accepted")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restored.Names()); got != 0 {
		t.Errorf("restored empty store has %d collections", got)
	}
}

// TestLoadSnapshotIndexesPreserveInsertionOrder: snapshot docs are sorted
// lexicographically by ID for byte determinism ("events/10" < "events/2"),
// but the restored secondary indexes must still return documents in
// insertion order — Shard.FindBy's contract, which the engine's
// recent-history and blacklist logic depends on across a restart.
func TestLoadSnapshotIndexesPreserveInsertionOrder(t *testing.T) {
	s := New()
	c := s.Collection("events")
	c.EnsureIndex("user")
	// More than 9 docs so lexicographic and numeric ID order diverge.
	const n = 25
	for i := 0; i < n; i++ {
		c.Insert(map[string]string{"user": "u", "item": "i" + strconv.Itoa(i)})
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	docs := restored.Collection("events").FindBy("user", "u")
	if len(docs) != n {
		t.Fatalf("restored lookup = %d docs, want %d", len(docs), n)
	}
	for i, d := range docs {
		if want := "i" + strconv.Itoa(i); d.Fields["item"] != want {
			t.Fatalf("doc %d after restore = %q, want %q (index order not insertion order)", i, d.Fields["item"], want)
		}
	}
}

// TestLoadSnapshotRefusesRepeatedID: a snapshot naming one document twice
// is refused, directly and through ShardedLog.Restore. Loading it would
// store the document once but index it twice, so a restored user's
// history would count the event twice.
func TestLoadSnapshotRefusesRepeatedID(t *testing.T) {
	const snap = `{"version":1,"collections":[{"name":"events","indexes":["user"],"next_id":1,"docs":[` +
		`{"id":"events/1","fields":{"item":"a","user":"u1"}},` +
		`{"id":"events/1","fields":{"item":"b","user":"u1"}}]}]}`
	if s, err := LoadSnapshot(strings.NewReader(snap)); err == nil {
		c := s.Collection("events")
		t.Fatalf("repeated ID accepted: count %d, FindBy returns %d docs", c.Count(), len(c.FindBy("user", "u1")))
	}
	l, err := OpenShardedLog(ShardedConfig{Shards: 2, IndexFields: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Restore(strings.NewReader(snap)); err == nil {
		t.Fatalf("Restore accepted a repeated ID: FindBy returns %d docs", len(l.FindBy("user", "u1")))
	}
	if err := l.Restore(strings.NewReader(`{"version":2,"shards":[` + snap + `]}`)); err == nil {
		t.Fatal("Restore accepted a repeated ID in a sharded snapshot")
	}
}

// TestLoadSnapshotRefusesMalformedID: a document ID must be
// "<collection>/<n>" with n ≥ 1 and no leading zeros.
func TestLoadSnapshotRefusesMalformedID(t *testing.T) {
	for _, id := range []string{"events/0", "events/01", "events/", "events/-1", "events/+1", "events/x", "events/1 ", "events1", "items/1", "/1", ""} {
		snap := `{"version":1,"collections":[{"name":"events","next_id":5,"docs":[{"id":` + strconv.Quote(id) + `,"fields":{"user":"u"}}]}]}`
		if _, err := LoadSnapshot(strings.NewReader(snap)); err == nil {
			t.Errorf("ID %q accepted", id)
		}
	}
	const ok = `{"version":1,"collections":[{"name":"events","next_id":12,"docs":[{"id":"events/12","fields":{"user":"u"}}]}]}`
	s, err := LoadSnapshot(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("canonical ID refused: %v", err)
	}
	if _, found := s.Collection("events").Get("events/12"); !found {
		t.Error("restored document not found by its ID")
	}
}

// TestLoadSnapshotRefusesRepeatedCollection: the documents of a
// collection come from one entry.
func TestLoadSnapshotRefusesRepeatedCollection(t *testing.T) {
	const snap = `{"version":1,"collections":[{"name":"events","docs":[{"id":"events/2","fields":{}}]},` +
		`{"name":"events","docs":[{"id":"events/1","fields":{}}]}]}`
	if _, err := LoadSnapshot(strings.NewReader(snap)); err == nil {
		t.Error("a collection appearing twice was accepted")
	}
}

// TestLoadSnapshotNextIDCoversDocuments: a next_id below the largest
// document ID does not hand that ID out again.
func TestLoadSnapshotNextIDCoversDocuments(t *testing.T) {
	const snap = `{"version":1,"collections":[{"name":"events","next_id":1,"docs":[{"id":"events/3","fields":{"user":"u"}}]}]}`
	s, err := LoadSnapshot(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("events")
	if id := c.Insert(map[string]string{"user": "v"}); id != "events/4" {
		t.Errorf("insert after restore got ID %q, want events/4", id)
	}
	if c.Count() != 2 {
		t.Errorf("count %d, want 2", c.Count())
	}
}
