package cco

import "sort"

// ranking.go holds the popularity ranking behind the cold-start fill:
// every item with a popularity entry, most popular first, ties broken by
// ascending item ID. The batch Model ranks once when it is built; the
// Incremental model keeps the same view current under Fold's ±1 count
// deltas, so a get copies the head of the view instead of sorting the
// catalogue.

// ranked is one slot of the ranking. The count sits beside the item so
// that ordering comparisons never go through the popularity map.
type ranked struct {
	item  string
	count int
}

// ahead is the ranking's order: whether e ranks strictly ahead of the
// key (count, item) — more popular first, ties by ascending item ID.
func (e ranked) ahead(count int, item string) bool {
	return e.count > count || (e.count == count && e.item < item)
}

type ranking []ranked

// rankPopularity ranks a popularity map from scratch: the one full sort,
// paid per built model rather than per query.
func rankPopularity(pop map[string]int) ranking {
	r := make(ranking, 0, len(pop))
	for it, c := range pop {
		r = append(r, ranked{it, c})
	}
	sort.Slice(r, func(i, j int) bool { return r[i].ahead(r[j].count, r[j].item) })
	return r
}

// slot returns the first index in r[lo:hi] whose entry does not rank
// ahead of (count, item): where that key sits, or would be inserted.
func (r ranking) slot(lo, hi, count int, item string) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].ahead(count, item) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// move re-ranks item after its count went from old to now: two binary
// searches (the old slot, then the new one on the side the count moved
// towards) and one shift of the entries in between. old == 0 inserts the
// item, now == 0 removes it. The caller guarantees old is the count the
// view holds for item.
func (r *ranking) move(item string, old, now int) {
	s := *r
	from := len(s)
	if old == 0 {
		s = append(s, ranked{})
	} else {
		from = s.slot(0, len(s), old, item)
	}
	switch {
	case now == 0:
		copy(s[from:], s[from+1:])
		s[len(s)-1] = ranked{} // drop the string reference
		s = s[:len(s)-1]
	case now > old:
		to := s.slot(0, from, now, item)
		copy(s[to+1:from+1], s[to:from])
		s[to] = ranked{item, now}
	default:
		to := s.slot(from+1, len(s), now, item) - 1
		copy(s[from:to], s[from+1:to+1])
		s[to] = ranked{item, now}
	}
	*r = s
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
	if n > len(r) {
		n = len(r)
	}
	return r.appendTop(make([]string, 0, n), n, nil)
}
