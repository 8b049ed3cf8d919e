// Package search is the inverted-index retrieval engine backing the
// Universal Recommender substrate, standing in for the Elasticsearch
// instance that Harness uses to persist and query the recommendation model
// (§7 of the PProx paper).
//
// The Universal Recommender serves a query by scoring every item document
// against the user's interaction history: each item document carries an
// "indicators" field listing the items found correlated with it by CCO
// training, and the query is a boolean OR of the user's recent history
// terms. This package implements exactly that query model — multi-term OR
// queries with per-term boosts, TF-IDF-style scoring, must-not exclusion
// (the blacklist of already-seen items), and top-k retrieval.
//
// A get is a few history terms matching ≈ 150 documents of which the top
// twenty are wanted, so a query's cost must follow its candidates, not
// the catalogue, and keep nothing per candidate. Every document ID is
// given a dense slot the first time Put sees it, and postings name the
// slot. Search adds each clause's contribution into a pooled per-slot
// score array — clause by clause, posting by posting, the order the
// floats have always been summed in — keeps its best k slots in a bounded
// min-heap, and clears only the slots it touched. A warm query's one
// allocation is the []Hit it returns.
package search

import (
	"math"
	"slices"
	"sync"
)

// Doc is one indexed document: an ID (the item identifier) and multi-valued
// string fields (e.g. "indicators" → correlated item IDs).
type Doc struct {
	ID     string
	Fields map[string][]string
}

// TermQuery matches documents containing Term in Field, contributing
// Boost × idf(Field, Term) × weight to the score.
type TermQuery struct {
	Field string
	Term  string
	Boost float64
}

// Query is a boolean query: documents matching at least one Should clause
// are candidates, scored by the sum of matching clauses; documents matching
// any MustNot clause are excluded.
type Query struct {
	Should  []TermQuery
	MustNot []TermQuery
	Size    int
}

// Hit is one scored result.
type Hit struct {
	ID    string
	Score float64
}

type posting struct {
	slot   int32   // the document's slot: names[slot] is its ID
	weight float64 // per-document term weight (stored at Put time)
}

// Index is an in-memory inverted index. It is safe for concurrent use;
// writes (Put/SetField/Delete) take an exclusive lock, queries share a
// read lock — the same single-writer/concurrent-reader regime an
// Elasticsearch shard provides between refreshes.
type Index struct {
	mu       sync.RWMutex
	postings map[string]map[string][]posting // field → term → postings
	docs     map[string]Doc
	diff     map[string]termChange // SetField's scratch, empty between calls

	// slots numbers every ID the index has held, densely and for good: a
	// deleted ID keeps its slot, and a re-put one gets it back, so the
	// table is bounded by the distinct IDs, not by the writes.
	slots map[string]int32
	names []string  // slot → ID
	spare sync.Pool // *scratch, clean between queries
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	ix := &Index{
		postings: make(map[string]map[string][]posting),
		docs:     make(map[string]Doc),
		diff:     make(map[string]termChange),
		slots:    make(map[string]int32),
	}
	ix.spare.New = func() any { return new(scratch) }
	return ix
}

// slotOf returns the ID's slot, numbering the ID if it has none yet.
func (ix *Index) slotOf(id string) int32 {
	slot, ok := ix.slots[id]
	if !ok {
		slot = int32(len(ix.names))
		ix.slots[id] = slot
		ix.names = append(ix.names, id)
	}
	return slot
}

// lengthNorm is a term's weight within a field of n terms: 1/√n, the
// standard length norm, so items with sparse indicator lists are not
// drowned out.
func lengthNorm(n int) float64 {
	if n == 0 {
		return 1
	}
	return 1 / math.Sqrt(float64(n))
}

// Put indexes a document, replacing any previous document with the same
// ID. Term weight within a document is lengthNorm of the field.
func (ix *Index) Put(doc Doc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot := ix.slotOf(doc.ID)
	if _, exists := ix.docs[doc.ID]; exists {
		ix.removeLocked(doc.ID, slot)
	}
	cp := Doc{ID: doc.ID, Fields: make(map[string][]string, len(doc.Fields))}
	for f, terms := range doc.Fields {
		cp.Fields[f] = append([]string(nil), terms...)
	}
	ix.docs[doc.ID] = cp
	for field, terms := range cp.Fields {
		byTerm, ok := ix.postings[field]
		if !ok {
			byTerm = make(map[string][]posting)
			ix.postings[field] = byTerm
		}
		norm := lengthNorm(len(terms))
		seen := make(map[string]bool, len(terms))
		for _, term := range terms {
			if seen[term] {
				continue
			}
			seen[term] = true
			byTerm[term] = append(byTerm[term], posting{slot: slot, weight: norm})
		}
	}
}

// termChange is where SetField's diff stands on one term of the field.
type termChange int8

const (
	_      termChange = iota
	leaves            // in the old list, not (yet) found in the new one
	stays             // in both, or already entered
	enters            // in the new list only
	gone              // left: its posting is removed
)

// SetField replaces one field of an indexed document, leaving its other
// fields alone, and reports how many fields the document then has; ok is
// false, and nothing changes, when the document is not indexed. Empty
// terms drop the field. The result is what Get, editing the field and Put
// would leave, but the cost follows the change: only the postings of terms
// that entered or left the field are touched, the remaining ones are
// re-weighted only when the field's length — its norm — changed, and a
// list equal to the stored one changes nothing and allocates nothing.
func (ix *Index) SetField(id, field string, terms []string) (fields int, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d, ok := ix.docs[id]
	if !ok {
		return 0, false
	}
	old := d.Fields[field]
	slot := ix.slots[id]

	// An indicator row rarely changes by more than a term: set the common
	// head and tail of the two lists aside and diff what lies between.
	head := 0
	for head < len(old) && head < len(terms) && old[head] == terms[head] {
		head++
	}
	oldEnd, newEnd := len(old), len(terms)
	for oldEnd > head && newEnd > head && old[oldEnd-1] == terms[newEnd-1] {
		oldEnd--
		newEnd--
	}
	if oldEnd == head && newEnd == head {
		if len(terms) == 0 {
			delete(d.Fields, field) // Put may have stored the field empty
		}
		return len(d.Fields), true
	}
	// A term set aside is in both lists, wherever else it occurs (only a
	// repeated term occurs elsewhere).
	setAside := func(term string) bool {
		return slices.Contains(terms[:head], term) || slices.Contains(terms[newEnd:], term)
	}

	byTerm := ix.postings[field]
	if byTerm == nil {
		byTerm = make(map[string][]posting)
		ix.postings[field] = byTerm
	}
	change := ix.diff
	defer clear(change)
	for _, term := range old[head:oldEnd] {
		change[term] = leaves
	}
	for _, term := range terms[head:newEnd] {
		switch change[term] {
		case leaves:
			change[term] = stays
		case 0:
			change[term] = enters
		}
	}

	for _, term := range old[head:oldEnd] {
		if change[term] != leaves {
			continue
		}
		if setAside(term) {
			change[term] = stays
			continue
		}
		change[term] = gone
		dropPosting(byTerm, term, slot)
	}
	weight := lengthNorm(len(terms))
	if len(old) != len(terms) {
		for _, term := range old {
			if change[term] == gone {
				continue
			}
			ps := byTerm[term]
			if i := postingOf(ps, slot); i >= 0 {
				ps[i].weight = weight
			}
		}
	}
	for _, term := range terms[head:newEnd] {
		if change[term] != enters {
			continue
		}
		change[term] = stays
		if !setAside(term) {
			byTerm[term] = append(byTerm[term], posting{slot: slot, weight: weight})
		}
	}

	if len(terms) == 0 {
		delete(d.Fields, field)
	} else {
		d.Fields[field] = append(old[:0], terms...)
	}
	return len(d.Fields), true
}

// postingOf returns the index of the document's posting in ps, or -1.
func postingOf(ps []posting, slot int32) int {
	for i := range ps {
		if ps[i].slot == slot {
			return i
		}
	}
	return -1
}

// dropPosting removes the document's posting under term, and the term
// with its last posting.
func dropPosting(byTerm map[string][]posting, term string, slot int32) {
	ps := byTerm[term]
	if i := postingOf(ps, slot); i >= 0 {
		ps = append(ps[:i], ps[i+1:]...)
	}
	if len(ps) == 0 {
		delete(byTerm, term)
	} else {
		byTerm[term] = ps
	}
}

// Delete removes a document; it reports whether it existed.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docs[id]; !ok {
		return false
	}
	ix.removeLocked(id, ix.slots[id])
	return true
}

func (ix *Index) removeLocked(id string, slot int32) {
	doc := ix.docs[id]
	delete(ix.docs, id)
	for field, terms := range doc.Fields {
		byTerm := ix.postings[field]
		seen := make(map[string]bool, len(terms))
		for _, term := range terms {
			if seen[term] {
				continue
			}
			seen[term] = true
			dropPosting(byTerm, term, slot)
		}
	}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Get returns an indexed document by ID.
func (ix *Index) Get(id string) (Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.docs[id]
	if !ok {
		return Doc{}, false
	}
	cp := Doc{ID: d.ID, Fields: make(map[string][]string, len(d.Fields))}
	for f, ts := range d.Fields {
		cp.Fields[f] = append([]string(nil), ts...)
	}
	return cp, true
}

// Search runs a boolean OR query and returns the top Size hits by
// descending score (ties broken by ascending ID for determinism).
func (ix *Index) Search(q Query) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	if q.Size <= 0 || len(q.Should) == 0 {
		return nil
	}

	s := ix.spare.Get().(*scratch)
	s.fit(len(ix.names))

	for _, mn := range q.MustNot {
		for _, p := range ix.postings[mn.Field][mn.Term] {
			s.exclude(p.slot)
		}
	}

	n := float64(len(ix.docs))
	for _, tq := range q.Should {
		ps := ix.postings[tq.Field][tq.Term]
		if len(ps) == 0 {
			continue
		}
		boost := tq.Boost
		if boost == 0 {
			boost = 1
		}
		idf := math.Log1p(n / float64(len(ps)))
		for _, p := range ps {
			s.add(p.slot, boost*idf*p.weight)
		}
	}

	hits := s.topK(ix.names, q.Size)
	s.reset()
	ix.spare.Put(s)
	return hits
}

// A slot's mark in a query's scratch.
const (
	untouched uint8 = iota
	scored
	excluded
)

// scratch is one query's working state over the index's slots. Between
// queries every mark is untouched, every score zero and both lists empty.
type scratch struct {
	score   []float64
	mark    []uint8
	touched []int32 // every slot not untouched, in the order first marked
	top     []int32 // the bounded min-heap of the best slots so far
}

// fit makes room for n slots. A clean scratch holds nothing worth
// copying, so growing it is making new arrays.
func (s *scratch) fit(n int) {
	if n <= cap(s.mark) {
		s.score, s.mark = s.score[:n], s.mark[:n]
		return
	}
	c := max(n, 2*cap(s.mark))
	s.score, s.mark = make([]float64, n, c), make([]uint8, n, c)
}

// exclude keeps the slot out of the results whatever it scores.
func (s *scratch) exclude(slot int32) {
	if s.mark[slot] == untouched {
		s.touched = append(s.touched, slot)
	}
	s.mark[slot] = excluded
}

// add adds one clause's contribution to the slot's score, unless the slot
// is excluded. A score starts from zero, as a missing map entry did.
func (s *scratch) add(slot int32, v float64) {
	switch s.mark[slot] {
	case excluded:
		return
	case untouched:
		s.mark[slot] = scored
		s.touched = append(s.touched, slot)
	}
	s.score[slot] += v
}

// reset cleans the slots the query touched, and only those.
func (s *scratch) reset() {
	for _, slot := range s.touched {
		s.score[slot], s.mark[slot] = 0, untouched
	}
	s.touched, s.top = s.touched[:0], s.top[:0]
}

// worse reports whether slot a ranks below slot b: a lower score, or an
// equal score and a later ID.
func (s *scratch) worse(names []string, a, b int32) bool {
	if s.score[a] != s.score[b] {
		return s.score[a] < s.score[b]
	}
	return names[a] > names[b]
}

// topK returns the k best scored slots as hits, best first. The heap
// keeps the worst of its slots on top; a candidate enters only when it
// beats that one.
func (s *scratch) topK(names []string, k int) []Hit {
	h := s.top
	for _, slot := range s.touched {
		if s.mark[slot] != scored {
			continue
		}
		switch {
		case len(h) < k:
			h = append(h, slot)
			s.up(names, h, len(h)-1)
		case s.worse(names, h[0], slot):
			h[0] = slot
			s.down(names, h, 0)
		}
	}
	s.top = h
	out := make([]Hit, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		slot := h[0]
		out[i] = Hit{ID: names[slot], Score: s.score[slot]}
		h[0] = h[i]
		h = h[:i]
		s.down(names, h, 0)
	}
	return out
}

// up restores the heap order above position i.
func (s *scratch) up(names []string, h []int32, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.worse(names, h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap order below position i.
func (s *scratch) down(names []string, h []int32, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && s.worse(names, h[c], h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
