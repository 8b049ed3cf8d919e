package cco

import "sort"

// ranking.go holds the popularity ranking behind the cold-start fill:
// every item with a popularity entry, most popular first, ties broken by
// ascending item ID. The batch Model ranks once when it is built; the
// Incremental model keeps the same view current under Fold's ±1 count
// deltas, so a get copies the head of the view instead of sorting the
// catalogue.
//
// The Incremental model's view (idRanking) holds interned ids and counts,
// no strings: Fold's shift of a tie group is then a plain memmove that the
// garbage collector has nothing to scan or barrier in, and the tie-break
// reads names through the model's id → name table. Model() turns it into
// the batch Model's ranking of names.

// ranked is one slot of the batch Model's ranking. The count sits beside
// the item so that ordering comparisons never go through the popularity
// map.
type ranked struct {
	item  string
	count int
}

type ranking []ranked

// rankPopularity ranks a popularity map from scratch: the one full sort,
// paid per built model rather than per query.
func rankPopularity(pop map[string]int) ranking {
	r := make(ranking, 0, len(pop))
	for it, c := range pop {
		r = append(r, ranked{it, c})
	}
	sort.Slice(r, func(i, j int) bool {
		return r[i].count > r[j].count || (r[i].count == r[j].count && r[i].item < r[j].item)
	})
	return r
}

// appendTop appends ranked items not in skip to dst, best first, until
// dst holds n items or the ranking is exhausted.
func (r ranking) appendTop(dst []string, n int, skip map[string]bool) []string {
	for i := 0; i < len(r) && len(dst) < n; i++ {
		if it := r[i].item; !skip[it] {
			dst = append(dst, it)
		}
	}
	return dst
}

// top returns the first n items of the ranking in a fresh slice.
func (r ranking) top(n int) []string {
	return r.appendTop(make([]string, 0, min(n, len(r))), n, nil)
}

// idRanked is one slot of the Incremental model's ranking: an interned
// item id and its count.
type idRanked struct {
	id, count int32
}

// idRanking is the Incremental model's ranking, in ranking's order. Its
// methods take the id → item table the ids index.
type idRanking []idRanked

// slot returns the first index in r[lo:hi] whose entry does not rank
// ahead of (count, item): where that key sits, or would be inserted.
func (r idRanking) slot(lo, hi int, count int32, item string, names []string) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := r[mid]; e.count > count || (e.count == count && names[e.id] < item) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// move re-ranks id after its count went from old to now: two binary
// searches (the old slot, then the new one on the side the count moved
// towards) and one shift of the entries in between. old == 0 inserts the
// item, now == 0 removes it. The caller guarantees old is the count the
// view holds for id.
func (r *idRanking) move(id int32, old, now int, names []string) {
	s, item := *r, names[id]
	from := len(s)
	if old == 0 {
		s = append(s, idRanked{})
	} else {
		from = s.slot(0, len(s), int32(old), item, names)
	}
	switch {
	case now == 0:
		copy(s[from:], s[from+1:])
		s = s[:len(s)-1]
	case now > old:
		to := s.slot(0, from, int32(now), item, names)
		copy(s[to+1:from+1], s[to:from])
		s[to] = idRanked{id, int32(now)}
	default:
		to := s.slot(from+1, len(s), int32(now), item, names) - 1
		copy(s[from:to], s[from+1:to+1])
		s[to] = idRanked{id, int32(now)}
	}
	*r = s
}

// appendTop appends ranked items not in skip to dst, best first, until
// dst holds n items or the ranking is exhausted.
func (r idRanking) appendTop(dst []string, n int, skip map[string]bool, names []string) []string {
	for i := 0; i < len(r) && len(dst) < n; i++ {
		if it := names[r[i].id]; !skip[it] {
			dst = append(dst, it)
		}
	}
	return dst
}

// top returns the first n items of the ranking in a fresh slice.
func (r idRanking) top(n int, names []string) []string {
	return r.appendTop(make([]string, 0, min(n, len(r))), n, nil, names)
}
