package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// twinFields are the fields the SetField tests rewrite; every document
// also carries the "id" self-field nothing rewrites.
var twinFields = []string{"indicators", "indicators_view"}

// putReplace is the write path SetField replaced: read the document, edit
// one field, index the whole document again.
func putReplace(ix *Index, id, field string, terms []string) (fields int, ok bool) {
	doc, ok := ix.Get(id)
	if !ok {
		return 0, false
	}
	if len(terms) == 0 {
		delete(doc.Fields, field)
	} else {
		doc.Fields[field] = terms
	}
	ix.Put(doc)
	return len(doc.Fields), true
}

// postingSets flattens the inverted index to field → term → document →
// weight: what Search reads, with the order of a posting list taken out.
func postingSets(ix *Index) map[string]map[string]map[string]float64 {
	out := make(map[string]map[string]map[string]float64)
	for fi, byTerm := range ix.postings {
		f := ix.fields[fi]
		for t, ps := range byTerm {
			if len(ps) == 0 {
				continue // a term whose last posting went
			}
			field, term := f.name, ix.terms[t]
			if out[field] == nil {
				out[field] = make(map[string]map[string]float64)
			}
			set := make(map[string]float64, len(ps))
			for _, slot := range ps {
				id := ix.names[slot]
				if _, twice := set[id]; twice {
					panic(fmt.Sprintf("document %s posted twice under %s/%s", id, field, term))
				}
				set[id] = f.norms[slot]
			}
			out[field][term] = set
		}
	}
	return out
}

// postingDiff names the first field/term whose posting set differs, or "".
func postingDiff(got, want map[string]map[string]map[string]float64) string {
	for _, side := range []map[string]map[string]map[string]float64{got, want} {
		for field, byTerm := range side {
			for term := range byTerm {
				if g, w := got[field][term], want[field][term]; !reflect.DeepEqual(g, w) {
					return fmt.Sprintf("%s/%s: got %v, want %v", field, term, g, w)
				}
			}
		}
	}
	return ""
}

// nextTerms derives a replacement list from the field's current one; kind
// selects which write shape is exercised.
func nextTerms(rng *rand.Rand, kind int, cur []string, universe int) []string {
	fresh := func() string { return fmt.Sprintf("t%02d", rng.Intn(universe)) }
	next := append([]string(nil), cur...)
	switch kind {
	case 0: // grow
		for n := 1 + rng.Intn(3); n > 0; n-- {
			at := rng.Intn(len(next) + 1)
			next = append(next[:at], append([]string{fresh()}, next[at:]...)...)
		}
	case 1: // shrink
		for n := 1 + rng.Intn(3); n > 0 && len(next) > 1; n-- {
			at := rng.Intn(len(next))
			next = append(next[:at], next[at+1:]...)
		}
	case 2: // same length, nothing swapped: the same list, or reordered
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		}
	case 3: // same length, one term swapped
		if len(next) > 0 {
			next[rng.Intn(len(next))] = fresh()
		}
	case 4: // same length, every term swapped
		for i := range next {
			next[i] = fmt.Sprintf("u%02d", rng.Intn(universe))
		}
	case 5: // empty: the field is dropped
		next = nil
	case 6: // repeated terms, in the middle and at both ends
		if len(next) > 0 {
			next = append(next, next[0], next[rng.Intn(len(next))])
			next = append([]string{next[len(next)-1]}, next...)
		}
	case 7: // an unrelated list
		next = next[:0]
		for n := rng.Intn(8); n > 0; n-- {
			next = append(next, fresh())
		}
	}
	return next
}

// TestSetFieldEqualsPut pins the index's one-field write path against the
// whole-document one it replaced: the same seeded sequence of replacements
// goes through SetField on one index and through Get + Put on its twin,
// and after every step the two hold equal documents, equal posting sets
// with equal weights, and answer every query with the same hits, scores
// compared as floats bit for bit.
func TestSetFieldEqualsPut(t *testing.T) {
	const docs, universe, steps = 12, 24, 600
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewIndex(), NewIndex()
		for d := 0; d < docs; d++ {
			id := fmt.Sprintf("d%02d", d)
			doc := Doc{ID: id, Fields: map[string][]string{"id": {id}}}
			for _, f := range twinFields {
				doc.Fields[f] = nextTerms(rng, 7, nil, universe)
			}
			a.Put(doc)
			b.Put(doc)
		}
		kinds := make(map[int]int)
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("d%02d", rng.Intn(docs+1)) // d12 is never indexed
			field := twinFields[rng.Intn(len(twinFields))]
			cur, _ := b.Get(id)
			kind := rng.Intn(8)
			kinds[kind]++
			terms := nextTerms(rng, kind, cur.Fields[field], universe)

			gotN, gotOK := a.SetField(id, field, append([]string(nil), terms...))
			wantN, wantOK := putReplace(b, id, field, terms)
			if gotN != wantN || gotOK != wantOK {
				t.Fatalf("seed %d step %d: SetField(%s, %s, %v) = (%d, %v), Get+Put leaves (%d, %v)",
					seed, step, id, field, terms, gotN, gotOK, wantN, wantOK)
			}
			if len(a.diff) != 0 {
				t.Fatalf("seed %d step %d: diff scratch holds %v after the call", seed, step, a.diff)
			}
			for d := 0; d <= docs; d++ {
				id := fmt.Sprintf("d%02d", d)
				got, gotOK := a.Get(id)
				want, wantOK := b.Get(id)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (kind %d on %s/%s): document %s\nSetField %v\nGet+Put  %v", seed, step, kind, id, field, id, got, want)
				}
			}
			if diff := postingDiff(postingSets(a), postingSets(b)); diff != "" {
				t.Fatalf("seed %d step %d (kind %d, %s/%s = %v): postings of %s", seed, step, kind, id, field, terms, diff)
			}
			for q := 0; q < 4; q++ {
				query := Query{Size: 1 + rng.Intn(docs)}
				for n := 1 + rng.Intn(5); n > 0; n-- {
					query.Should = append(query.Should, TermQuery{
						Field: twinFields[rng.Intn(len(twinFields))],
						Term:  fmt.Sprintf("t%02d", rng.Intn(universe)),
						Boost: float64(rng.Intn(3)) / 2,
					})
				}
				if rng.Intn(2) == 0 {
					query.MustNot = []TermQuery{{Field: "id", Term: fmt.Sprintf("d%02d", rng.Intn(docs))}}
				}
				if got, want := a.Search(query), b.Search(query); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: query %+v\nSetField %v\nGet+Put  %v", seed, step, query, got, want)
				}
			}
		}
		for kind := 0; kind < 8; kind++ {
			if kinds[kind] == 0 {
				t.Fatalf("seed %d never drew write shape %d", seed, kind)
			}
		}
	}
}

// TestSetFieldOnAbsentDocument: the caller is told, the index is left as
// it was — indexing a new document stays Put's job.
func TestSetFieldOnAbsentDocument(t *testing.T) {
	ix := NewIndex()
	ix.Put(Doc{ID: "a", Fields: indicators("x")})
	if n, ok := ix.SetField("b", "indicators", []string{"x"}); ok || n != 0 {
		t.Fatalf("SetField on an absent document = (%d, %v)", n, ok)
	}
	if ix.Len() != 1 || len(postingSets(ix)["indicators"]["x"]) != 1 {
		t.Fatalf("absent document left a trace: %d docs, postings %v", ix.Len(), postingSets(ix))
	}
}

// TestPostingOrderCannotChangeAScore: SetField appends an entering term's
// posting where Put would have re-appended every posting of the document,
// so the two indexes' posting lists hold the same entries in different
// orders. A score is a sum over the query's terms, one posting per term
// and document, so the order inside a list is not an input to it: two
// indexes loaded in opposite orders answer alike, bit for bit.
func TestPostingOrderCannotChangeAScore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var docs []Doc
	for d := 0; d < 40; d++ {
		docs = append(docs, Doc{ID: fmt.Sprintf("d%02d", d), Fields: indicators(nextTerms(rng, 7, nil, 12)...)})
	}
	forward, backward := NewIndex(), NewIndex()
	for i := range docs {
		forward.Put(docs[i])
		backward.Put(docs[len(docs)-1-i])
	}
	if reflect.DeepEqual(forward.postings, backward.postings) {
		t.Fatal("both load orders built the same posting lists: the case shows nothing")
	}
	for q := 0; q < 200; q++ {
		query := Query{Size: 1 + rng.Intn(len(docs))}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			query.Should = append(query.Should, TermQuery{Field: "indicators", Term: fmt.Sprintf("t%02d", rng.Intn(12)), Boost: rng.Float64()})
		}
		if got, want := backward.Search(query), forward.Search(query); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: loaded backward %v, forward %v", query, got, want)
		}
	}
}

// TestSetFieldUnderConcurrentSearch: queries read the postings SetField
// rewrites. Under -race this proves the diff runs under the write lock;
// afterwards the index is the one a fresh load of the final lists builds.
func TestSetFieldUnderConcurrentSearch(t *testing.T) {
	const docs, universe = 8, 16
	ix, want := NewIndex(), NewIndex()
	final := make(map[string][]string)
	for d := 0; d < docs; d++ {
		id := fmt.Sprintf("d%02d", d)
		ix.Put(Doc{ID: id, Fields: map[string][]string{"id": {id}, "indicators": {"t00"}}})
	}
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
				ix.Search(Query{Should: should(fmt.Sprintf("t%02d", rng.Intn(universe)), "t00"), Size: docs})
				ix.Get(fmt.Sprintf("d%02d", rng.Intn(docs)))
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 2000; step++ {
		id := fmt.Sprintf("d%02d", rng.Intn(docs))
		terms := nextTerms(rng, 7, nil, universe)
		terms = append(terms, "t00") // never empty: the document keeps the field
		ix.SetField(id, "indicators", terms)
		final[id] = terms
	}
	close(stop)
	readers.Wait()
	for d := 0; d < docs; d++ {
		id := fmt.Sprintf("d%02d", d)
		terms := final[id]
		if terms == nil {
			terms = []string{"t00"}
		}
		want.Put(Doc{ID: id, Fields: map[string][]string{"id": {id}, "indicators": terms}})
	}
	if diff := postingDiff(postingSets(ix), postingSets(want)); diff != "" {
		t.Fatalf("after concurrent searches the index differs from a fresh load of the final lists at %s", diff)
	}
}

// rowOf builds an indicator list of n terms starting at term number from.
func rowOf(from, n int) []string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("item-%06d", from+i)
	}
	return terms
}

// rowIndex is an index of docs documents with 30-term indicator lists —
// the repository benchmark's row cap — drawn from overlapping windows of a
// shared vocabulary, so posting lists are tens of entries long.
func rowIndex(docs int) *Index {
	ix := NewIndex()
	for d := 0; d < docs; d++ {
		id := fmt.Sprintf("item-%06d", d)
		ix.Put(Doc{ID: id, Fields: map[string][]string{"id": {id}, "indicators": rowOf(d, 30)}})
	}
	return ix
}

// TestSetFieldAllocs pins the diffing update's allocations: writing the
// list the field already holds allocates nothing, and swapping one term
// for another of a row that keeps its length allocates nothing either
// once the posting lists have been that long before.
func TestSetFieldAllocs(t *testing.T) {
	ix := rowIndex(200)
	same := rowOf(100, 30)
	if a := testing.AllocsPerRun(100, func() { ix.SetField("item-000100", "indicators", same) }); a != 0 {
		t.Errorf("rewriting an unchanged field allocates %v times, want 0", a)
	}
	swapped := rowOf(100, 30)
	swapped[12] = "item-000090"
	if a := testing.AllocsPerRun(100, func() {
		ix.SetField("item-000100", "indicators", swapped)
		ix.SetField("item-000100", "indicators", same)
	}); a != 0 {
		t.Errorf("swapping one term and back allocates %v times, want 0", a)
	}
}

// BenchmarkIndexSetField prices one row update at the two ends of what an
// online apply sends: one term of thirty replaced (the common case: 83 %
// of the benchmark's row updates keep their length and change about one
// term) and all thirty replaced.
func BenchmarkIndexSetField(b *testing.B) {
	for _, bc := range []struct {
		name string
		alt  func() []string
	}{
		{"terms=1of30", func() []string { r := rowOf(100, 30); r[12] = "item-000090"; return r }},
		{"terms=30of30", func() []string { return rowOf(140, 30) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ix := rowIndex(200)
			rows := [2][]string{bc.alt(), rowOf(100, 30)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.SetField("item-000100", "indicators", rows[i%2])
			}
		})
	}
}
