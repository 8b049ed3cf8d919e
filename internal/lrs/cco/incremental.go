package cco

import (
	"slices"
	"strings"
	"sync"
)

// incremental.go maintains the CCO co-occurrence counts event by event,
// following the incremental item-similarity blueprint of Zhao et al.'s
// scalable item-based top-N work: instead of re-counting the whole event
// log per training run, each arriving (user, item) interaction applies a
// bounded delta to the pair counts, and only the rows those deltas touch
// are re-scored online.
//
// The invariant that makes the increments *exact* rather than
// approximate: after every Apply, the popularity and pair counts equal
// what batch Train would compute over the same event stream. Train's
// counting pipeline is (1) global (user, item) dedup keeping the first
// occurrence, (2) per-user keep-last-K downsampling of the deduped
// history, (3) pair counting within each user's window, (4) per-user
// popularity over the windows. Apply mirrors it as a sliding window: a
// duplicate is dropped against the user's ever-seen set (step 1); a
// distinct item entering a full window evicts the oldest item, removing
// its pair and popularity contributions (step 2, since keep-last-K over
// a growing sequence IS a sliding window); the new item then pairs with
// the surviving window (step 3) and counts once for popularity (step 4).
// Induction over the stream gives count equality, and LLR scoring is a
// pure function of the counts — so re-scoring all rows reproduces the
// batch model bit for bit (TestIncrementalConvergesToBatch).
//
// The popularity ranking (ranking.go) rides on the same deltas: each of
// the two places Apply changes a popularity count re-ranks that one item
// (new item, increment, eviction decrement, removal at zero), so the view
// always equals a fresh sort of the counts — the cold-start fill reads it
// without sorting (TestRankingTracksBatchAfterEveryApply).
//
// Representation: an event costs what it changes. Items are interned to
// dense int32 ids the first time Apply sees them; popularity is a slice
// indexed by id, a co-occurrence row a pointer-free slice of (other, k)
// sorted by other — ±1 is a binary search, entering or leaving a row one
// copy — and windows and seen-sets hold ids. Scoring a row is a linear
// walk with array-indexed popularity and table-read x·ln x terms, and the
// garbage collector finds no pointers in the counts. Ids are never
// reclaimed: an item evicted to zero keeps its id (and an empty row) for
// when it is posted again, so the tables are bounded by the distinct items
// ever seen, as the seen-sets already are. The id is an address, not an
// order: every ordering the model exposes is by item name.
//
// What online re-scoring does NOT chase: a new user or a popularity
// change shifts the LLR margins of *every* row. Apply re-scores only the
// rows whose pair counts changed (they are the ones retrieval quality
// depends on for the just-active user); the remaining rows keep their
// last scores until the next Apply touches them or Model() re-scores
// everything. That staleness is in scores only — never in counts — and
// disappears at every compaction.

// RowUpdate is one re-scored indicator row produced by Apply: the item
// whose correlator list changed and its fresh (bounded, sorted) row. An
// empty Indicators slice means the row scored below threshold and the
// item should drop out of retrieval.
type RowUpdate struct {
	Item       string
	Indicators []Correlation
}

// pair is one entry of a co-occurrence row: k users hold both the row's
// item and other in their windows.
type pair struct {
	other, k int32
}

// scored is a pair's LLR while its row is being ordered.
type scored struct {
	llr   float64
	other int32
}

// userWindow is one user's interaction state: the ever-seen dedup set
// (item ids, ascending) and the sliding window of the last
// ≤ MaxInteractionsPerUser distinct items, in arrival order.
type userWindow struct {
	seen   []int32
	window []int32
}

// Incremental maintains CCO counts under per-event updates. It is safe
// for concurrent use; Apply calls are serialized internally, so the
// caller's event order is the model's event order.
type Incremental struct {
	mu    sync.Mutex
	cfg   Config
	users map[string]*userWindow

	ids   map[string]int32 // item → dense id, assigned at first sight
	names []string         // id → item
	pop   []int32          // id → users whose window holds the item
	rows  [][]pair         // id → co-occurrence row, ascending by other
	nrows int              // rows that are not empty
	rank  ranking          // pop in cold-start order, kept current by Apply

	xlx     xlogxTable // x·ln x per integer, grown to the user count
	touched []int32    // scratch: ids whose rows the running Apply changed
	scratch []scored   // scratch: the row being ordered
	applied uint64
}

// NewIncremental builds an empty incremental model with the same config
// normalization as Train.
func NewIncremental(cfg Config) *Incremental {
	if cfg.MaxInteractionsPerUser <= 0 {
		cfg.MaxInteractionsPerUser = DefaultConfig().MaxInteractionsPerUser
	}
	if cfg.MaxCorrelatorsPerItem <= 0 {
		cfg.MaxCorrelatorsPerItem = DefaultConfig().MaxCorrelatorsPerItem
	}
	return &Incremental{
		cfg:   cfg,
		users: make(map[string]*userWindow),
		ids:   make(map[string]int32),
	}
}

// Apply folds one primary-indicator event into the counts and returns
// the freshly re-scored rows of every item whose pair counts changed,
// sorted by item for determinism. A duplicate (user, item) interaction
// returns nil: the counts are unchanged, exactly as batch dedup would
// drop it.
func (inc *Incremental) Apply(ev Event) []RowUpdate {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	touched := inc.fold(ev)
	if len(touched) == 0 {
		return nil
	}
	slices.SortFunc(touched, func(a, b int32) int {
		return strings.Compare(inc.names[a], inc.names[b])
	})
	out := make([]RowUpdate, len(touched))
	for i, id := range touched {
		out[i] = RowUpdate{Item: inc.names[id], Indicators: inc.scoreRow(id)}
	}
	return out
}

// Fold is Apply without the scoring: the same window, eviction, count and
// ranking bookkeeping, no rows returned. It is what replaying a log into
// a fresh model needs — TrainNow's reseed would throw the rows away, the
// batch model it has just trained holds them all.
func (inc *Incremental) Fold(ev Event) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.fold(ev)
}

// fold applies one event's count deltas and returns the ids of the rows
// they changed, in scratch storage valid until the next fold. Every id
// appears once: a window never holds an item twice, the arriving item was
// not in it, the evicted one no longer is. Callers hold inc.mu.
func (inc *Incremental) fold(ev Event) []int32 {
	inc.applied++

	uw := inc.users[ev.User]
	if uw == nil {
		uw = &userWindow{}
		inc.users[ev.User] = uw
	}
	item := inc.intern(ev.Item)
	at, dup := slices.BinarySearch(uw.seen, item)
	if dup {
		return nil
	}
	uw.seen = slices.Insert(uw.seen, at, item)

	touched := append(inc.touched[:0], item)

	// Window full: evict the oldest item, undoing its contributions.
	if len(uw.window) >= inc.cfg.MaxInteractionsPerUser {
		oldest := uw.window[0]
		copy(uw.window, uw.window[1:])
		uw.window = uw.window[:len(uw.window)-1]
		inc.pop[oldest]--
		c := int(inc.pop[oldest])
		inc.rank.move(inc.names[oldest], c+1, c)
		for _, w := range uw.window {
			inc.addPair(oldest, w, -1)
			inc.addPair(w, oldest, -1)
		}
		touched = append(touched, oldest)
	}

	// The new item co-occurs with every surviving window item.
	for _, w := range uw.window {
		inc.addPair(item, w, 1)
		inc.addPair(w, item, 1)
	}
	touched = append(touched, uw.window...)
	uw.window = append(uw.window, item)
	inc.pop[item]++
	c := int(inc.pop[item])
	inc.rank.move(inc.names[item], c-1, c)

	inc.touched = touched
	return touched
}

// intern returns the item's id, assigning the next one at first sight.
func (inc *Incremental) intern(item string) int32 {
	id, ok := inc.ids[item]
	if !ok {
		id = int32(len(inc.names))
		inc.ids[item] = id
		inc.names = append(inc.names, item)
		inc.pop = append(inc.pop, 0)
		inc.rows = append(inc.rows, nil)
	}
	return id
}

// addPair adds d (±1) to the count of b in a's row. An entry is inserted
// at its first user and removed with its last; a decrement of a pair the
// row does not hold changes nothing.
func (inc *Incremental) addPair(a, b, d int32) {
	row := inc.rows[a]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].other < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	switch {
	case lo < len(row) && row[lo].other == b:
		if row[lo].k += d; row[lo].k > 0 {
			return
		}
		row = append(row[:lo], row[lo+1:]...)
		if len(row) == 0 {
			inc.nrows--
		}
	case d > 0:
		if len(row) == 0 {
			inc.nrows++
		}
		row = append(row, pair{})
		copy(row[lo+1:], row[lo:])
		row[lo] = pair{other: b, k: d}
	}
	inc.rows[a] = row
}

// scoreRow computes one item's indicator row from the current counts —
// the same filter/sort/cap pipeline as Train, ordered in scratch storage
// and copied out once. Callers hold inc.mu.
func (inc *Incremental) scoreRow(id int32) []Correlation {
	row := inc.rows[id]
	if len(row) == 0 {
		return nil
	}
	total, count := len(inc.users), int(inc.pop[id])
	sc := inc.scratch[:0]
	for _, p := range row {
		score := inc.xlx.llr(int(p.k), count, int(inc.pop[p.other]), total)
		if score <= inc.cfg.MinLLR {
			continue
		}
		sc = append(sc, scored{llr: score, other: p.other})
	}
	inc.scratch = sc
	if len(sc) == 0 {
		return nil
	}
	// Order: LLR descending, item name ascending on ties. The order is
	// total (names are distinct), so keeping the best cap while walking the
	// rest is the same row as sorting everything and cutting it.
	ahead := func(a, b scored) int {
		switch {
		case a.llr > b.llr:
			return -1
		case a.llr < b.llr:
			return 1
		}
		return strings.Compare(inc.names[a.other], inc.names[b.other])
	}
	if limit := inc.cfg.MaxCorrelatorsPerItem; len(sc) > limit {
		rest := sc[limit:]
		sc = sc[:limit]
		slices.SortFunc(sc, ahead)
		for _, s := range rest {
			if ahead(s, sc[limit-1]) > 0 {
				continue
			}
			at, _ := slices.BinarySearchFunc(sc, s, ahead)
			copy(sc[at+1:], sc[at:])
			sc[at] = s
		}
	} else {
		slices.SortFunc(sc, ahead)
	}
	cs := make([]Correlation, len(sc))
	for i, s := range sc {
		cs[i] = Correlation{Item: inc.names[s.other], LLR: s.llr}
	}
	return cs
}

// Row returns one item's indicator row re-scored against the current
// counts (always exact, regardless of which rows Apply has touched).
func (inc *Incremental) Row(item string) []Correlation {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	id, ok := inc.ids[item]
	if !ok {
		return nil
	}
	return inc.scoreRow(id)
}

// Model materializes the full model from the current counts: every row
// re-scored; popularity, its ranking and the user count copied. The
// result equals Train(events, cfg) over the applied event stream.
func (inc *Incremental) Model() *Model {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	m := &Model{
		Indicators: make(map[string][]Correlation, inc.nrows),
		Popularity: make(map[string]int, len(inc.rank)),
		Users:      len(inc.users),
		ranked:     append(ranking(nil), inc.rank...),
	}
	for _, e := range inc.rank {
		m.Popularity[e.item] = e.count
	}
	for id := range inc.rows {
		if cs := inc.scoreRow(int32(id)); len(cs) > 0 {
			m.Indicators[inc.names[id]] = cs
		}
	}
	return m
}

// PopularItems returns the n most popular items, most popular first,
// ties broken by ascending item ID — the cold-start ranking. It copies
// the head of the maintained view: O(n) under the lock.
func (inc *Incremental) PopularItems(n int) []string {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.rank.top(n)
}

// AppendPopular appends the most popular items not in skip to dst, in
// PopularItems order, until dst holds n items or the catalogue runs out.
func (inc *Incremental) AppendPopular(dst []string, n int, skip map[string]bool) []string {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.rank.appendTop(dst, n, skip)
}

// Users returns the distinct-user count.
func (inc *Incremental) Users() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.users)
}

// Counts summarizes the model state: distinct users, items with
// popularity, and items carrying co-occurrence rows.
func (inc *Incremental) Counts() (users, items, rows int) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.users), len(inc.rank), inc.nrows
}

// Applied returns how many events have been folded in (duplicates
// included: they were processed, they just changed nothing).
func (inc *Incremental) Applied() uint64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.applied
}
