package cco

import (
	"sort"
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

// userWindow is one user's interaction state: the ever-seen dedup set
// and the sliding window of the last ≤ MaxInteractionsPerUser distinct
// items, in arrival order.
type userWindow struct {
	seen   map[string]struct{}
	window []string
}

// Incremental maintains CCO counts under per-event updates. It is safe
// for concurrent use; Apply calls are serialized internally, so the
// caller's event order is the model's event order.
type Incremental struct {
	mu      sync.Mutex
	cfg     Config
	users   map[string]*userWindow
	pop     map[string]int
	rank    ranking // pop in cold-start order, kept current by Apply
	cooc    map[string]map[string]int
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
		pop:   make(map[string]int),
		cooc:  make(map[string]map[string]int),
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
	inc.applied++

	uw := inc.users[ev.User]
	if uw == nil {
		uw = &userWindow{seen: make(map[string]struct{})}
		inc.users[ev.User] = uw
	}
	if _, dup := uw.seen[ev.Item]; dup {
		return nil
	}
	uw.seen[ev.Item] = struct{}{}

	changed := map[string]struct{}{ev.Item: {}}

	// Window full: evict the oldest item, undoing its contributions.
	if len(uw.window) >= inc.cfg.MaxInteractionsPerUser {
		oldest := uw.window[0]
		uw.window = uw.window[1:]
		c := inc.pop[oldest] - 1
		if c == 0 {
			delete(inc.pop, oldest)
		} else {
			inc.pop[oldest] = c
		}
		inc.rank.move(oldest, c+1, c)
		for _, w := range uw.window {
			inc.decPair(oldest, w)
			inc.decPair(w, oldest)
			changed[w] = struct{}{}
		}
		changed[oldest] = struct{}{}
	}

	// The new item co-occurs with every surviving window item.
	for _, w := range uw.window {
		inc.incPair(ev.Item, w)
		inc.incPair(w, ev.Item)
		changed[w] = struct{}{}
	}
	uw.window = append(uw.window, ev.Item)
	c := inc.pop[ev.Item] + 1
	inc.pop[ev.Item] = c
	inc.rank.move(ev.Item, c-1, c)

	items := make([]string, 0, len(changed))
	for it := range changed {
		items = append(items, it)
	}
	sort.Strings(items)
	out := make([]RowUpdate, len(items))
	for i, it := range items {
		out[i] = RowUpdate{Item: it, Indicators: inc.scoreRow(it)}
	}
	return out
}

func (inc *Incremental) incPair(a, b string) {
	row := inc.cooc[a]
	if row == nil {
		row = make(map[string]int)
		inc.cooc[a] = row
	}
	row[b]++
}

func (inc *Incremental) decPair(a, b string) {
	row := inc.cooc[a]
	if row == nil {
		return
	}
	row[b]--
	if row[b] <= 0 {
		delete(row, b)
		if len(row) == 0 {
			delete(inc.cooc, a)
		}
	}
}

// scoreRow computes one item's indicator row from the current counts —
// the same filter/sort/cap pipeline as Train. Callers hold inc.mu.
func (inc *Incremental) scoreRow(item string) []Correlation {
	neighbors := inc.cooc[item]
	if len(neighbors) == 0 {
		return nil
	}
	total := len(inc.users)
	cs := make([]Correlation, 0, len(neighbors))
	for other, k11 := range neighbors {
		score := LLR(k11, inc.pop[item], inc.pop[other], total)
		if score <= inc.cfg.MinLLR {
			continue
		}
		cs = append(cs, Correlation{Item: other, LLR: score})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].LLR != cs[j].LLR {
			return cs[i].LLR > cs[j].LLR
		}
		return cs[i].Item < cs[j].Item
	})
	if len(cs) > inc.cfg.MaxCorrelatorsPerItem {
		cs = cs[:inc.cfg.MaxCorrelatorsPerItem]
	}
	return cs
}

// Row returns one item's indicator row re-scored against the current
// counts (always exact, regardless of which rows Apply has touched).
func (inc *Incremental) Row(item string) []Correlation {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.scoreRow(item)
}

// Model materializes the full model from the current counts: every row
// re-scored; popularity, its ranking and the user count copied. The
// result equals Train(events, cfg) over the applied event stream.
func (inc *Incremental) Model() *Model {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	m := &Model{
		Indicators: make(map[string][]Correlation, len(inc.cooc)),
		Popularity: make(map[string]int, len(inc.pop)),
		Users:      len(inc.users),
		ranked:     append(ranking(nil), inc.rank...),
	}
	for it, c := range inc.pop {
		m.Popularity[it] = c
	}
	for item := range inc.cooc {
		if cs := inc.scoreRow(item); len(cs) > 0 {
			m.Indicators[item] = cs
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
	return len(inc.users), len(inc.pop), len(inc.cooc)
}

// Applied returns how many events have been folded in (duplicates
// included: they were processed, they just changed nothing).
func (inc *Incremental) Applied() uint64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.applied
}
