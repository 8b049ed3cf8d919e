package search

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// raceDetector is set when the tests run under -race (race_test.go).
var raceDetector bool

func indicators(items ...string) map[string][]string {
	return map[string][]string{"indicators": items}
}

func should(terms ...string) []TermQuery {
	qs := make([]TermQuery, len(terms))
	for i, t := range terms {
		qs[i] = TermQuery{Field: "indicators", Term: t}
	}
	return qs
}

func TestPutGetDelete(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("x", "y")})
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	d, ok := ix.Get("a")
	if !ok || len(d.Fields["indicators"]) != 2 {
		t.Fatalf("Get = %+v, %v", d, ok)
	}
	if !ix.Delete("a") {
		t.Fatal("Delete missed existing doc")
	}
	if ix.Delete("a") {
		t.Fatal("second Delete succeeded")
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d after delete", ix.Len())
	}
	if hits := ix.Search(Query{Should: should("x"), Size: 5}); len(hits) != 0 {
		t.Errorf("deleted doc still matches: %v", hits)
	}
}

func TestPutReplacesDocument(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("old")})
	ix.Put(Doc{ID: "a", Fields: indicators("new")})
	if hits := ix.Search(Query{Should: should("old"), Size: 5}); len(hits) != 0 {
		t.Errorf("stale posting survives replacement: %v", hits)
	}
	if hits := ix.Search(Query{Should: should("new"), Size: 5}); len(hits) != 1 {
		t.Errorf("replacement not indexed: %v", hits)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestSearchORSemantics(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("x")})
	ix.Put(Doc{ID: "b", Fields: indicators("y")})
	ix.Put(Doc{ID: "c", Fields: indicators("z")})
	hits := ix.Search(Query{Should: should("x", "y"), Size: 10})
	ids := hitIDs(hits)
	if len(ids) != 2 || !ids["a"] || !ids["b"] {
		t.Errorf("OR query hits = %v", hits)
	}
}

func TestSearchScoresMultiTermMatchesHigher(t *testing.T) {
	ix := NewIndex()
	// "both" matches two history terms, "one" matches a single term.
	ix.Put(Doc{ID: "both", Fields: indicators("h1", "h2")})
	ix.Put(Doc{ID: "one", Fields: indicators("h1", "zz")})
	hits := ix.Search(Query{Should: should("h1", "h2"), Size: 10})
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].ID != "both" {
		t.Errorf("top hit = %v, want doc matching more history terms", hits[0])
	}
	if hits[0].Score <= hits[1].Score {
		t.Errorf("scores not ordered: %v", hits)
	}
}

func TestSearchIDFPrefersRareTerms(t *testing.T) {
	ix := NewIndex()
	// "common" appears in many docs, "rare" in one; a doc matching the
	// rare term should outrank a doc matching only the common term.
	for i := 0; i < 20; i++ {
		ix.Put(Doc{ID: fmt.Sprintf("noise-%02d", i), Fields: indicators("common")})
	}
	ix.Put(Doc{ID: "special", Fields: indicators("rare")})
	hits := ix.Search(Query{Should: should("common", "rare"), Size: 3})
	if hits[0].ID != "special" {
		t.Errorf("top hit = %v, want the rare-term match", hits[0])
	}
}

func TestSearchMustNotExcludes(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: map[string][]string{"indicators": {"x"}, "id": {"a"}}})
	ix.Put(Doc{ID: "b", Fields: map[string][]string{"indicators": {"x"}, "id": {"b"}}})
	hits := ix.Search(Query{
		Should:  should("x"),
		MustNot: []TermQuery{{Field: "id", Term: "a"}},
		Size:    10,
	})
	ids := hitIDs(hits)
	if ids["a"] || !ids["b"] {
		t.Errorf("must-not exclusion broken: %v", hits)
	}
}

func TestSearchBoost(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("x")})
	ix.Put(Doc{ID: "b", Fields: indicators("y")})
	hits := ix.Search(Query{
		Should: []TermQuery{
			{Field: "indicators", Term: "x", Boost: 1},
			{Field: "indicators", Term: "y", Boost: 10},
		},
		Size: 10,
	})
	if len(hits) != 2 || hits[0].ID != "b" {
		t.Errorf("boost ignored: %v", hits)
	}
}

func TestSearchSizeLimitsAndDeterministicOrder(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		ix.Put(Doc{ID: fmt.Sprintf("d%02d", i), Fields: indicators("x")})
	}
	hits := ix.Search(Query{Should: should("x"), Size: 7})
	if len(hits) != 7 {
		t.Fatalf("got %d hits, want 7", len(hits))
	}
	// Equal scores: ties broken by ascending ID, so the result is the
	// lexicographically first 7 IDs.
	for i, h := range hits {
		want := fmt.Sprintf("d%02d", i)
		if h.ID != want {
			t.Errorf("hit[%d] = %s, want %s", i, h.ID, want)
		}
	}
	again := ix.Search(Query{Should: should("x"), Size: 7})
	for i := range hits {
		if hits[i] != again[i] {
			t.Fatal("search is not deterministic")
		}
	}
}

func TestSearchEmptyCases(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("x")})
	if hits := ix.Search(Query{Should: should("x"), Size: 0}); hits != nil {
		t.Errorf("Size=0 returned %v", hits)
	}
	if hits := ix.Search(Query{Size: 5}); hits != nil {
		t.Errorf("no Should clauses returned %v", hits)
	}
	if hits := ix.Search(Query{Should: should("absent"), Size: 5}); len(hits) != 0 {
		t.Errorf("absent term returned %v", hits)
	}
}

func TestLengthNormPrefersFocusedDocs(t *testing.T) {
	ix := NewIndex()
	long := make([]string, 100)
	for i := range long {
		long[i] = fmt.Sprintf("t%d", i)
	}
	long[0] = "x"
	ix.Put(Doc{ID: "diluted", Fields: indicators(long...)})
	ix.Put(Doc{ID: "focused", Fields: indicators("x")})
	hits := ix.Search(Query{Should: should("x"), Size: 2})
	if len(hits) != 2 || hits[0].ID != "focused" {
		t.Errorf("length norm not applied: %v", hits)
	}
}

func TestTopKProperty(t *testing.T) {
	// topK must return the k highest-scoring slots in order.
	f := func(raw []uint16, kRaw uint8) bool {
		names := make([]string, len(raw))
		s := new(scratch)
		s.fit(len(raw))
		all := make([]Hit, len(raw))
		for i, v := range raw {
			names[i] = fmt.Sprintf("d%04d", i)
			s.add(int32(i), float64(v))
			all[i] = Hit{ID: names[i], Score: float64(v)}
		}
		k := int(kRaw)%10 + 1
		got := s.topK(names, k)

		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].ID < all[j].ID
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ix.Put(Doc{ID: fmt.Sprintf("g%d-%d", g, i), Fields: indicators("x")})
				ix.Search(Query{Should: should("x"), Size: 5})
			}
		}(g)
	}
	wg.Wait()
	if ix.Len() != 400 {
		t.Errorf("Len = %d, want 400", ix.Len())
	}
}

func hitIDs(hits []Hit) map[string]bool {
	ids := make(map[string]bool, len(hits))
	for _, h := range hits {
		ids[h.ID] = true
	}
	return ids
}

// referenceSearch is the query algorithm Search replaced, kept as its
// oracle: scores summed into a map keyed by document ID in clause, then
// posting order, exclusions in a second map, and the top k kept by a
// container/heap of boxed hits and sorted at the end.
func referenceSearch(ix *Index, q Query) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	if q.Size <= 0 || len(q.Should) == 0 {
		return nil
	}

	excluded := make(map[string]bool)
	for _, mn := range q.MustNot {
		_, ps := ix.lookup(mn.Field, mn.Term)
		for _, slot := range ps {
			excluded[ix.names[slot]] = true
		}
	}

	n := float64(ix.docs)
	scores := make(map[string]float64)
	for _, tq := range q.Should {
		f, ps := ix.lookup(tq.Field, tq.Term)
		if len(ps) == 0 {
			continue
		}
		boost := tq.Boost
		if boost == 0 {
			boost = 1
		}
		idf := math.Log1p(n / float64(len(ps)))
		for _, slot := range ps {
			id := ix.names[slot]
			if excluded[id] {
				continue
			}
			scores[id] += boost * idf * f.norms[slot]
		}
	}

	h := make(refHeap, 0, q.Size+1)
	for id, score := range scores {
		heap.Push(&h, Hit{ID: id, Score: score})
		if len(h) > q.Size {
			heap.Pop(&h)
		}
	}
	out := []Hit(h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// refHeap is referenceSearch's min-heap of the current top-k hits.
type refHeap []Hit

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID // worst tie (largest ID) at the top
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *refHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// randomQuery draws a query over a universe of terms and document IDs: one to
// six clauses, a term sometimes repeated, boosts of 0 (read as 1), ½ and
// 1, sometimes exclusions, and a Size that is sometimes above any
// candidate count.
func randomQuery(rng *rand.Rand, universe, docs int) Query {
	q := Query{Size: 1 + rng.Intn(docs+5)}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		tq := TermQuery{
			Field: twinFields[rng.Intn(len(twinFields))],
			Term:  fmt.Sprintf("t%02d", rng.Intn(universe)),
			Boost: float64(rng.Intn(3)) / 2,
		}
		q.Should = append(q.Should, tq)
		if rng.Intn(4) == 0 {
			q.Should = append(q.Should, tq)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		q.MustNot = append(q.MustNot, TermQuery{Field: "id", Term: fmt.Sprintf("d%02d", rng.Intn(docs))})
	}
	if rng.Intn(8) == 0 {
		q.MustNot = append(q.MustNot, TermQuery{Field: "indicators", Term: fmt.Sprintf("t%02d", rng.Intn(universe))})
	}
	return q
}

// randomDoc draws a document with a random list in each of twinFields, a
// field sometimes left out or stored empty.
func randomDoc(rng *rand.Rand, id string, universe int) Doc {
	doc := Doc{ID: id, Fields: map[string][]string{"id": {id}}}
	for _, f := range twinFields {
		switch rng.Intn(6) {
		case 0:
		case 1:
			doc.Fields[f] = nil
		default:
			doc.Fields[f] = nextTerms(rng, 7, nil, universe)
		}
	}
	return doc
}

// TestSearchMatchesReference pins Search to the algorithm it replaced:
// under a seeded churn of Put, SetField and Delete — deleted IDs put back,
// so slots are reused — every query answers with the reference's hits in
// the reference's order, scores equal as floats bit for bit.
func TestSearchMatchesReference(t *testing.T) {
	const docs, universe, steps, queries = 30, 20, 500, 6
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		var reput, empty int
		deleted := make(map[string]bool)
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("d%02d", rng.Intn(docs))
			switch op := rng.Intn(10); {
			case op < 4:
				if deleted[id] {
					reput++
					delete(deleted, id)
				}
				ix.Put(randomDoc(rng, id, universe))
			case op < 8:
				field := twinFields[rng.Intn(len(twinFields))]
				cur, _ := ix.Get(id)
				ix.SetField(id, field, nextTerms(rng, rng.Intn(8), cur.Fields[field], universe))
			default:
				if ix.Delete(id) {
					deleted[id] = true
				}
			}
			for i := 0; i < queries; i++ {
				q := randomQuery(rng, universe, docs)
				got, want := ix.Search(q), referenceSearch(ix, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: query %+v\\nSearch    %v\\nreference %v", seed, step, q, got, want)
				}
				if len(want) < q.Size {
					empty++
				}
			}
		}
		if reput == 0 || empty == 0 {
			t.Fatalf("seed %d: %d re-puts, %d queries with Size above the candidates: the churn shows nothing", seed, reput, empty)
		}
		if len(ix.names) > docs {
			t.Fatalf("seed %d: %d slots for %d distinct IDs", seed, len(ix.names), docs)
		}
	}
}

// TestSearchLeavesNoScratchBehind: a query that scored and excluded many
// slots must leave nothing in the pooled scratch for the next one — a
// mark or a score left behind would change the next query's answer.
func TestSearchLeavesNoScratchBehind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	used, fresh := NewIndex(), NewIndex()
	for d := 0; d < 60; d++ {
		doc := randomDoc(rng, fmt.Sprintf("d%02d", d), 12)
		used.Put(doc)
		fresh.Put(doc)
	}
	wide := Query{Size: 5}
	for term := 0; term < 12; term++ {
		wide.Should = append(wide.Should, TermQuery{Field: "indicators", Term: fmt.Sprintf("t%02d", term)})
	}
	for d := 0; d < 60; d += 2 {
		wide.MustNot = append(wide.MustNot, TermQuery{Field: "id", Term: fmt.Sprintf("d%02d", d)})
	}
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, 12, 60)
		used.Search(wide)
		if s, _ := used.spare.Get().(*scratch); s != nil {
			for slot := range s.mark {
				if s.mark[slot] != untouched || s.score[slot] != 0 {
					t.Fatalf("after a query slot %d is left marked %d, scored %v", slot, s.mark[slot], s.score[slot])
				}
			}
			if len(s.touched) != 0 || len(s.top) != 0 {
				t.Fatalf("after a query the scratch holds %d touched slots, %d heap entries", len(s.touched), len(s.top))
			}
			used.spare.Put(s)
		}
		if got, want := used.Search(q), fresh.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v after a wide one: %v, on a fresh index %v", q, got, want)
		}
	}
}

// TestSearchWhileSlotsGrow: queries run while Put numbers new IDs — the
// slot table, and with it every pooled scratch, grows mid-run — and
// Delete removes others. Under -race this proves the slot table is only
// written under the write lock; every answer must be well formed, and the
// final index must answer as the reference and as a fresh load of what
// it holds.
func TestSearchWhileSlotsGrow(t *testing.T) {
	const universe = 16
	ix := NewIndex()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{
					Should:  should(fmt.Sprintf("t%02d", rng.Intn(universe)), fmt.Sprintf("t%02d", rng.Intn(universe))),
					MustNot: []TermQuery{{Field: "id", Term: fmt.Sprintf("n%04d", rng.Intn(1000))}},
					Size:    10,
				}
				hits := ix.Search(q)
				if len(hits) > q.Size {
					t.Errorf("%d hits for Size %d", len(hits), q.Size)
					return
				}
				for i, h := range hits {
					if h.ID == q.MustNot[0].Term {
						t.Errorf("excluded %s returned", h.ID)
						return
					}
					if i > 0 && (h.Score > hits[i-1].Score || h.Score == hits[i-1].Score && h.ID < hits[i-1].ID) {
						t.Errorf("hits out of order: %v", hits)
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(4))
	live := make(map[string]Doc)
	for n := 0; n < 1000; n++ {
		id := fmt.Sprintf("n%04d", n)
		doc := Doc{ID: id, Fields: map[string][]string{"id": {id}, "indicators": nextTerms(rng, 7, nil, universe)}}
		ix.Put(doc)
		live[id] = doc
		if n%3 == 0 {
			victim := fmt.Sprintf("n%04d", rng.Intn(n+1))
			ix.Delete(victim)
			delete(live, victim)
		}
	}
	close(stop)
	readers.Wait()

	fresh := NewIndex()
	for _, doc := range live {
		fresh.Put(doc)
	}
	for i := 0; i < 200; i++ {
		q := Query{Should: should(fmt.Sprintf("t%02d", rng.Intn(universe)), fmt.Sprintf("t%02d", rng.Intn(universe))), Size: 1 + rng.Intn(40)}
		got := ix.Search(q)
		if want := referenceSearch(ix, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: Search %v, reference %v", q, got, want)
		}
		if want := fresh.Search(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: grown index %v, fresh load %v", q, got, want)
		}
	}
}

// shapedIndex is an index of the repository benchmark's shape after its
// 6,000 seeded events: 943 item documents, each with its "id" self-field
// and 30 distinct indicators drawn by a Zipf popularity (exponent 1.1,
// offset 25), so a popular term posts to many documents. queries draws
// gets of that shape: two history terms by the same popularity, three own
// items excluded, the top 20 wanted — about 170 candidates, where the
// benchmark's gets have about 150.
func shapedIndex(seed int64) (ix *Index, queries func() Query) {
	const docs, row = 943, 30
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 25, docs-1)
	item := func() string { return fmt.Sprintf("item-%06d", zipf.Uint64()) }
	ix = NewIndex()
	for d := 0; d < docs; d++ {
		id := fmt.Sprintf("item-%06d", d)
		terms := make([]string, 0, row)
		for len(terms) < row {
			if t := item(); t != id && !slices.Contains(terms, t) {
				terms = append(terms, t)
			}
		}
		ix.Put(Doc{ID: id, Fields: map[string][]string{"id": {id}, "indicators": terms}})
	}
	return ix, func() Query {
		q := Query{Should: should(item(), item()), Size: 20}
		for n := 0; n < 3; n++ {
			q.MustNot = append(q.MustNot, TermQuery{Field: "id", Term: item()})
		}
		return q
	}
}

// TestSearchAllocs: a query on a warm index allocates once, the []Hit it
// returns. The race detector drops a quarter of sync.Pool's puts on
// purpose, so the count is taken without it.
func TestSearchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled scratches; run without -race")
	}
	ix, next := shapedIndex(1)
	qs := make([]Query, 64)
	for i := range qs {
		qs[i] = next()
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() { ix.Search(qs[i%len(qs)]); i++ }); a > 1 {
		t.Errorf("a warm query allocates %v times, want ≤ 1", a)
	}
}

// BenchmarkIndexSearch prices one get's query on a benchmark-shaped
// index, cycling through 256 drawn queries.
func BenchmarkIndexSearch(b *testing.B) {
	ix, next := shapedIndex(1)
	qs := make([]Query, 256)
	var candidates int
	for i := range qs {
		qs[i] = next()
		big := qs[i]
		big.Size = 1 << 20
		candidates += len(ix.Search(big))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink = ix.Search(qs[i%len(qs)])
	}
	b.ReportMetric(float64(candidates)/float64(len(qs)), "candidates/query")
}

var searchSink []Hit

// TestTablesStayBounded: the index numbers IDs, terms and fields for
// good, so under a long churn of Put, SetField and Delete over k IDs and t
// terms its tables stop at k slots and t terms, however many writes go
// by, and an ID put back after a delete is at its old slot.
func TestTablesStayBounded(t *testing.T) {
	const k, universe, steps = 20, 16, 5000
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex()
	offered := make(map[string]bool) // every term written, IDs in the "id" field among them
	slotOf := make(map[string]int32)
	var reput int
	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("d%02d", rng.Intn(k))
		switch op := rng.Intn(10); {
		case op < 3:
			_, held := ix.Get(id)
			doc := randomDoc(rng, id, universe)
			for _, terms := range doc.Fields {
				for _, term := range terms {
					offered[term] = true
				}
			}
			ix.Put(doc)
			if slot, seen := slotOf[id]; !seen {
				slotOf[id] = ix.slots[id]
			} else if ix.slots[id] != slot {
				t.Fatalf("step %d: %s put back at slot %d, first put at %d", step, id, ix.slots[id], slot)
			} else if !held {
				reput++
			}
		case op < 8:
			field := twinFields[rng.Intn(len(twinFields))]
			cur, _ := ix.Get(id)
			terms := nextTerms(rng, rng.Intn(8), cur.Fields[field], universe)
			for _, term := range terms {
				offered[term] = true
			}
			ix.SetField(id, field, terms)
		default:
			ix.Delete(id)
		}
	}
	if reput == 0 {
		t.Fatal("no ID was put back after a delete: the churn shows nothing")
	}
	if len(ix.names) > k || len(ix.slots) > k || len(ix.held) > k {
		t.Errorf("slot table: %d names, %d slots, %d held flags for %d IDs", len(ix.names), len(ix.slots), len(ix.held), k)
	}
	if len(ix.terms) > len(offered) || len(ix.termIDs) > len(offered) {
		t.Errorf("term dictionary: %d terms, %d IDs for %d terms written", len(ix.terms), len(ix.termIDs), len(offered))
	}
	if want := len(twinFields) + 1; len(ix.fields) != want || len(ix.postings) != want {
		t.Errorf("%d fields, %d posting tables; the documents have %d fields", len(ix.fields), len(ix.postings), want)
	}
	for fi, f := range ix.fields {
		if len(f.lists) > k || len(f.norms) > k {
			t.Errorf("field %s: %d lists, %d norms for %d IDs", f.name, len(f.lists), len(f.norms), k)
		}
		if len(ix.postings[fi]) > len(ix.terms) {
			t.Errorf("field %s: posting lists for %d terms, dictionary %d", f.name, len(ix.postings[fi]), len(ix.terms))
		}
		for _, ps := range ix.postings[fi] {
			if len(ps) > k {
				t.Errorf("field %s: a posting list of %d slots for %d IDs", f.name, len(ps), k)
			}
		}
	}
	t.Logf("%d writes: %d slots, %d terms (%d written), %d IDs put back", steps, len(ix.names), len(ix.terms), len(offered), reput)
}
