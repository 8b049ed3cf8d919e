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
package search

import (
	"container/heap"
	"math"
	"slices"
	"sort"
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
	docID  string
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
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string]map[string][]posting),
		docs:     make(map[string]Doc),
		diff:     make(map[string]termChange),
	}
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
	if _, exists := ix.docs[doc.ID]; exists {
		ix.removeLocked(doc.ID)
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
			byTerm[term] = append(byTerm[term], posting{docID: doc.ID, weight: norm})
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
		dropPosting(byTerm, term, id)
	}
	weight := lengthNorm(len(terms))
	if len(old) != len(terms) {
		for _, term := range old {
			if change[term] == gone {
				continue
			}
			ps := byTerm[term]
			if i := postingOf(ps, id); i >= 0 {
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
			byTerm[term] = append(byTerm[term], posting{docID: id, weight: weight})
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
func postingOf(ps []posting, id string) int {
	for i := range ps {
		if ps[i].docID == id {
			return i
		}
	}
	return -1
}

// dropPosting removes the document's posting under term, and the term
// with its last posting.
func dropPosting(byTerm map[string][]posting, term, id string) {
	ps := byTerm[term]
	if i := postingOf(ps, id); i >= 0 {
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
	ix.removeLocked(id)
	return true
}

func (ix *Index) removeLocked(id string) {
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
			dropPosting(byTerm, term, id)
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

	excluded := make(map[string]bool)
	for _, mn := range q.MustNot {
		for _, p := range ix.postings[mn.Field][mn.Term] {
			excluded[p.docID] = true
		}
	}

	n := float64(len(ix.docs))
	scores := make(map[string]float64)
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
			if excluded[p.docID] {
				continue
			}
			scores[p.docID] += boost * idf * p.weight
		}
	}

	return topK(scores, q.Size)
}

// hitHeap is a min-heap of the current top-k hits.
type hitHeap []Hit

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID // worst tie (largest ID) at the top
}
func (h hitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

func topK(scores map[string]float64, k int) []Hit {
	h := make(hitHeap, 0, k+1)
	for id, score := range scores {
		heap.Push(&h, Hit{ID: id, Score: score})
		if len(h) > k {
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
