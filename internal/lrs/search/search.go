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
//
// The index is kept as numbers. One dictionary gives every term an ID; a
// document is, per field, its list of term IDs; a term's postings are the
// slots holding it; and a posting's weight, the field's length norm for
// the document, is stored once per (slot, field). At the repository
// benchmark's shape (about 950 item documents of up to 30 indicators)
// the index holds about 0.41 MB of heap, where a map per document and a
// weight per posting held nearly three times that.
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

// field is one field's forward store: each document's list of the
// field, by slot.
type field struct {
	name string
	// lists[slot] is the document's list as term IDs, in the order put
	// and with any repeats; nil when the document lacks the field, empty
	// when it was put empty.
	lists [][]int32
	// norms[slot] is lengthNorm of the list: the weight of each of the
	// document's postings in the field.
	norms []float64
}

// list returns the document's list of the field, nil when it has none.
func (f *field) list(slot int32) []int32 {
	if int(slot) >= len(f.lists) {
		return nil
	}
	return f.lists[slot]
}

// setList stores the document's list of the field and its norm.
func (f *field) setList(slot int32, list []int32) {
	for int(slot) >= len(f.lists) {
		f.lists = append(f.lists, nil)
		f.norms = append(f.norms, 0)
	}
	f.lists[slot], f.norms[slot] = list, lengthNorm(len(list))
}

// Index is an in-memory inverted index. It is safe for concurrent use;
// writes (Put/SetField/Delete) take an exclusive lock, queries share a
// read lock — the same single-writer/concurrent-reader regime an
// Elasticsearch shard provides between refreshes.
//
// Documents, terms and fields are numbered densely and for good: a
// deleted document keeps its slot and a re-put one gets it back, a term
// keeps its ID when its last posting goes, so every table is bounded by
// the distinct IDs, terms and fields the index has held, not by the
// writes.
type Index struct {
	mu sync.RWMutex

	fields   []*field    // field number → forward store; a handful, found by name
	postings [][][]int32 // field number → term ID → slots holding the term, each once
	// SetField's and Put's scratch, empty between calls.
	diff map[int32]termChange
	mid  []int32 // SetField's new middle as term IDs

	termIDs map[string]int32
	terms   []string // term ID → term

	slots map[string]int32
	names []string // slot → ID
	held  []bool   // slot → a document is indexed there
	docs  int      // documents indexed

	spare sync.Pool // *scratch, clean between queries
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	ix := &Index{
		diff:    make(map[int32]termChange),
		termIDs: make(map[string]int32),
		slots:   make(map[string]int32),
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
		ix.held = append(ix.held, false)
	}
	return slot
}

// termOf returns the term's ID, numbering the term if it has none yet.
func (ix *Index) termOf(term string) int32 {
	t, ok := ix.termIDs[term]
	if !ok {
		t = int32(len(ix.terms))
		ix.termIDs[term] = t
		ix.terms = append(ix.terms, term)
	}
	return t
}

// fieldNamed returns the field's number, or -1 when no document has held
// the field.
func (ix *Index) fieldNamed(name string) int {
	for fi, f := range ix.fields {
		if f.name == name {
			return fi
		}
	}
	return -1
}

// fieldFor returns the field's number, numbering the field if it has
// none yet.
func (ix *Index) fieldFor(name string) int {
	fi := ix.fieldNamed(name)
	if fi < 0 {
		fi = len(ix.fields)
		ix.fields = append(ix.fields, &field{name: name})
		ix.postings = append(ix.postings, nil)
	}
	return fi
}

// lookup returns the field named and the slots holding the term in it;
// no slots when the index has never held either.
func (ix *Index) lookup(name, term string) (*field, []int32) {
	fi := ix.fieldNamed(name)
	t, ok := ix.termIDs[term]
	if fi < 0 || !ok || int(t) >= len(ix.postings[fi]) {
		return nil, nil
	}
	return ix.fields[fi], ix.postings[fi][t]
}

// post adds the document's posting under the term.
func (ix *Index) post(fi int, t, slot int32) {
	byTerm := ix.postings[fi]
	for int(t) >= len(byTerm) {
		byTerm = append(byTerm, nil)
	}
	byTerm[t] = append(byTerm[t], slot)
	ix.postings[fi] = byTerm
}

// unpost removes the document's posting under the term, if it has one.
func (ix *Index) unpost(fi int, t, slot int32) {
	ps := ix.postings[fi][t]
	if i := slices.Index(ps, slot); i >= 0 {
		ps = slices.Delete(ps, i, i+1)
	}
	if len(ps) == 0 {
		ps = nil // the term's last posting: its list goes
	}
	ix.postings[fi][t] = ps
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
// ID. Term weight within a document is lengthNorm of the field. The index
// keeps term IDs, not the caller's slices, which the caller may reuse.
func (ix *Index) Put(doc Doc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot := ix.slotOf(doc.ID)
	if ix.held[slot] {
		ix.removeLocked(slot)
	} else {
		ix.held[slot] = true
		ix.docs++
	}
	posted := ix.diff
	for name, terms := range doc.Fields {
		fi := ix.fieldFor(name)
		list := make([]int32, len(terms))
		for i, term := range terms {
			list[i] = ix.termOf(term)
		}
		ix.fields[fi].setList(slot, list)
		for _, t := range list {
			if _, twice := posted[t]; !twice {
				posted[t] = stays
				ix.post(fi, t, slot)
			}
		}
		clear(posted)
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
// that entered or left the field are touched, the field's norm for the
// document is one value, and a list equal to the stored one changes
// nothing and allocates nothing.
func (ix *Index) SetField(id, name string, terms []string) (fields int, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.slots[id]
	if !ok || !ix.held[slot] {
		return 0, false
	}
	fi := ix.fieldFor(name)
	f := ix.fields[fi]
	old := f.list(slot)

	// An indicator row rarely changes by more than a term: set the common
	// head and tail of the two lists aside and diff what lies between.
	head := 0
	for head < len(old) && head < len(terms) && ix.terms[old[head]] == terms[head] {
		head++
	}
	oldEnd, newEnd := len(old), len(terms)
	for oldEnd > head && newEnd > head && ix.terms[old[oldEnd-1]] == terms[newEnd-1] {
		oldEnd--
		newEnd--
	}
	if oldEnd == head && newEnd == head {
		if len(terms) == 0 && old != nil {
			f.lists[slot] = nil // Put may have stored the field empty
		}
		return ix.fieldsOf(slot), true
	}
	// A term set aside is in both lists, wherever else it occurs (only a
	// repeated term occurs elsewhere).
	setAside := func(t int32) bool {
		return slices.Contains(old[:head], t) || slices.Contains(old[oldEnd:], t)
	}

	change := ix.diff
	defer clear(change)
	for _, t := range old[head:oldEnd] {
		change[t] = leaves
	}
	mid := ix.mid[:0]
	for _, term := range terms[head:newEnd] {
		t := ix.termOf(term)
		mid = append(mid, t)
		switch change[t] {
		case leaves:
			change[t] = stays
		case 0:
			change[t] = enters
		}
	}
	ix.mid = mid

	for _, t := range old[head:oldEnd] {
		if change[t] != leaves {
			continue
		}
		if setAside(t) {
			change[t] = stays
			continue
		}
		change[t] = gone
		ix.unpost(fi, t, slot)
	}
	for _, t := range mid {
		if change[t] != enters {
			continue
		}
		change[t] = stays
		if !setAside(t) {
			ix.post(fi, t, slot)
		}
	}

	if len(terms) == 0 {
		f.lists[slot] = nil
	} else {
		f.setList(slot, slices.Replace(old, head, oldEnd, mid...))
	}
	return ix.fieldsOf(slot), true
}

// fieldsOf returns how many fields the document at slot has.
func (ix *Index) fieldsOf(slot int32) int {
	n := 0
	for _, f := range ix.fields {
		if f.list(slot) != nil {
			n++
		}
	}
	return n
}

// Delete removes a document; it reports whether it existed.
func (ix *Index) Delete(id string) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.slots[id]
	if !ok || !ix.held[slot] {
		return false
	}
	ix.removeLocked(slot)
	ix.held[slot] = false
	ix.docs--
	return true
}

// removeLocked takes the document's postings and lists out of every
// field; it stays held. A repeated term's second removal finds nothing.
func (ix *Index) removeLocked(slot int32) {
	for fi, f := range ix.fields {
		list := f.list(slot)
		for _, t := range list {
			ix.unpost(fi, t, slot)
		}
		if list != nil {
			f.lists[slot] = nil
		}
	}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docs
}

// Get returns an indexed document by ID.
func (ix *Index) Get(id string) (Doc, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.slots[id]
	if !ok || !ix.held[slot] {
		return Doc{}, false
	}
	d := Doc{ID: id, Fields: make(map[string][]string, len(ix.fields))}
	for _, f := range ix.fields {
		list := f.list(slot)
		if list == nil {
			continue
		}
		var terms []string
		if len(list) > 0 {
			terms = make([]string, len(list))
			for i, t := range list {
				terms[i] = ix.terms[t]
			}
		}
		d.Fields[f.name] = terms
	}
	return d, true
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
		_, ps := ix.lookup(mn.Field, mn.Term)
		for _, slot := range ps {
			s.exclude(slot)
		}
	}

	n := float64(ix.docs)
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
			s.add(slot, boost*idf*f.norms[slot])
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
