// Package cco implements Correlated Cross-Occurrence (CCO) model training,
// the collaborative-filtering algorithm of the Universal Recommender that
// the PProx paper integrates with (§7): "UR implements collaborative
// filtering based on the Correlated Cross-Occurrence (CCO) algorithm. CCO
// aggregates indicators (in our setup, feedback on the access to items)
// and builds profiles allowing to predict users' interests based on the
// history of other profiles with high similarity."
//
// The implementation follows Mahout's SimilarityAnalysis: per-user and
// per-item interaction downsampling, item co-occurrence counting, and
// log-likelihood-ratio (LLR) scoring to keep only statistically
// significant correlations — the top correlated items per item become that
// item's "indicators", indexed for retrieval. In Harness this job runs as
// a periodic Apache Spark batch; here it is an in-process batch trainer
// (see DESIGN.md §1 for the substitution).
package cco

import (
	"math"
	"sort"
)

// Event is one feedback interaction: user u accessed item i. This is
// exactly the information a post(u, i) call carries; under PProx both
// identifiers are pseudonyms, which is invisible to the algorithm.
type Event struct {
	User string
	Item string
}

// Correlation is one scored indicator: Item is correlated with the owning
// model entry with the given LLR strength.
type Correlation struct {
	Item string
	LLR  float64
}

// Model maps each item to its top correlated items, strongest first.
type Model struct {
	// Indicators lists, per item, the correlated items by descending LLR.
	Indicators map[string][]Correlation
	// Popularity counts distinct users per item, used for cold-start
	// ranking when a user has no usable history.
	Popularity map[string]int
	// Users is the number of distinct users seen at training time.
	Users int

	// ranked is Popularity in cold-start order, filled in by whatever
	// built the model (Train, TrainMulti, Incremental.Model); the model is
	// immutable afterwards. A Model assembled by hand has none and ranks
	// its map on demand (popular).
	ranked ranking
}

// Config bounds the trainer the way Mahout does.
type Config struct {
	// MaxInteractionsPerUser caps each user history before pair
	// counting (downsampling); Mahout's default is 500. Histories are
	// truncated keeping the most recent interactions.
	MaxInteractionsPerUser int
	// MaxCorrelatorsPerItem caps each item's indicator list; Mahout's
	// default is 50.
	MaxCorrelatorsPerItem int
	// MinLLR discards correlations below this significance threshold.
	MinLLR float64
}

// DefaultConfig returns Mahout-compatible defaults.
func DefaultConfig() Config {
	return Config{
		MaxInteractionsPerUser: 500,
		MaxCorrelatorsPerItem:  50,
		MinLLR:                 0,
	}
}

// Train builds a CCO model from an event log. Events are processed in
// order; when a user exceeds MaxInteractionsPerUser, the oldest
// interactions are dropped.
func Train(events []Event, cfg Config) *Model {
	if cfg.MaxInteractionsPerUser <= 0 {
		cfg.MaxInteractionsPerUser = DefaultConfig().MaxInteractionsPerUser
	}
	if cfg.MaxCorrelatorsPerItem <= 0 {
		cfg.MaxCorrelatorsPerItem = DefaultConfig().MaxCorrelatorsPerItem
	}

	// Distinct (user, item) interactions, preserving order per user.
	histories := make(map[string][]string)
	seen := make(map[[2]string]bool, len(events))
	for _, ev := range events {
		key := [2]string{ev.User, ev.Item}
		if seen[key] {
			continue
		}
		seen[key] = true
		histories[ev.User] = append(histories[ev.User], ev.Item)
	}

	// Downsample: keep the most recent interactions per user.
	for u, h := range histories {
		if len(h) > cfg.MaxInteractionsPerUser {
			histories[u] = h[len(h)-cfg.MaxInteractionsPerUser:]
		}
	}

	// Item interaction counts (distinct users per item).
	popularity := make(map[string]int)
	for _, h := range histories {
		for _, it := range h {
			popularity[it]++
		}
	}

	// Co-occurrence counting: for each user, every unordered pair of
	// items in their downsampled history co-occurs once.
	cooc := make(map[string]map[string]int)
	bump := func(a, b string) {
		m, ok := cooc[a]
		if !ok {
			m = make(map[string]int)
			cooc[a] = m
		}
		m[b]++
	}
	for _, h := range histories {
		for i := 0; i < len(h); i++ {
			for j := i + 1; j < len(h); j++ {
				bump(h[i], h[j])
				bump(h[j], h[i])
			}
		}
	}

	// LLR scoring per item pair.
	total := len(histories)
	model := &Model{
		Indicators: make(map[string][]Correlation, len(cooc)),
		Popularity: popularity,
		Users:      total,
		ranked:     rankPopularity(popularity),
	}
	for item, neighbors := range cooc {
		cs := make([]Correlation, 0, len(neighbors))
		for other, k11 := range neighbors {
			score := LLR(k11, popularity[item], popularity[other], total)
			if score <= cfg.MinLLR {
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
		if len(cs) > cfg.MaxCorrelatorsPerItem {
			cs = cs[:cfg.MaxCorrelatorsPerItem]
		}
		if len(cs) > 0 {
			model.Indicators[item] = cs
		}
	}
	return model
}

// LLR computes the log-likelihood-ratio significance of the co-occurrence
// of two items (Dunning's G² statistic), given:
//
//	k11 — users who interacted with both items,
//	countA, countB — users who interacted with each item,
//	total — total users.
//
// Degenerate inputs (zero counts, inconsistent margins) yield 0.
func LLR(k11, countA, countB, total int) float64 {
	k12, k21, k22, ok := contingency(k11, countA, countB, total)
	if !ok {
		return 0
	}
	return llrOf(xlogx(total),
		xlogx(countA), xlogx(total-countA),
		xlogx(countB), xlogx(total-countB),
		xlogx(k11), xlogx(k12), xlogx(k21), xlogx(k22))
}

// contingency completes the 2×2 table from k11 and its margins: A without
// B, B without A, neither. ok is false for the degenerate inputs LLR
// scores 0.
func contingency(k11, countA, countB, total int) (k12, k21, k22 int, ok bool) {
	k12 = countA - k11
	k21 = countB - k11
	k22 = total - countA - countB + k11
	return k12, k21, k22, k11 >= 0 && k12 >= 0 && k21 >= 0 && k22 >= 0 && total > 0
}

// llrOf is the statistic's arithmetic over the nine x·ln x terms of the
// table — the total, the row margins, the column margins, the cells. It is
// the single definition: LLR feeds it math.Log terms, the incremental
// model feeds it the same terms read from its xlogxTable, and since the
// operations and their order are the same the two agree bit for bit.
func llrOf(xN, xA, xNotA, xB, xNotB, x11, x12, x21, x22 float64) float64 {
	rowEntropy := xN - xA - xNotA
	colEntropy := xN - xB - xNotB
	matEntropy := xN - x11 - x12 - x21 - x22
	llr := 2 * (rowEntropy + colEntropy - matEntropy)
	if llr < 0 || math.IsNaN(llr) {
		return 0 // numerical noise
	}
	return llr
}

// xlogx is x·ln x, 0 at 0. The conversion rounds the product where it is
// made, so a term kept in a table and a term computed in place are the
// same float on architectures that would otherwise fuse the multiply into
// the subtraction that follows.
func xlogx(x int) float64 {
	if x <= 0 {
		return 0
	}
	f := float64(x)
	return float64(f * math.Log(f))
}

// xlogxTable is xlogx evaluated once per integer: entry x holds xlogx(x).
// The incremental model owns one and reads nine entries per scored pair
// instead of taking nine logarithms; it never outgrows the user count,
// the largest value a contingency table holds.
type xlogxTable []float64

// llr is LLR with every term read from the table, which is grown to cover
// total (and with it every other term of a valid table) first.
func (t *xlogxTable) llr(k11, countA, countB, total int) float64 {
	k12, k21, k22, ok := contingency(k11, countA, countB, total)
	if !ok {
		return 0
	}
	for len(*t) <= total {
		*t = append(*t, xlogx(len(*t)))
	}
	x := *t
	return llrOf(x[total],
		x[countA], x[total-countA],
		x[countB], x[total-countB],
		x[k11], x[k12], x[k21], x[k22])
}

// TopIndicators returns up to n indicator item IDs for an item, strongest
// first, or nil if the item is unknown to the model.
func (m *Model) TopIndicators(item string, n int) []string {
	cs := m.Indicators[item]
	if len(cs) == 0 {
		return nil
	}
	if n > len(cs) {
		n = len(cs)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = cs[i].Item
	}
	return out
}

// PopularItems returns the n most popular items (distinct-user count),
// most popular first, ties broken by ascending item ID. It backs the
// cold-start path.
func (m *Model) PopularItems(n int) []string {
	return m.popular().top(n)
}

// AppendPopular appends the most popular items not in skip to dst, in
// PopularItems order, until dst holds n items or the catalogue runs out.
func (m *Model) AppendPopular(dst []string, n int, skip map[string]bool) []string {
	return m.popular().appendTop(dst, n, skip)
}

// popular returns the ranking the model was built with; a hand-assembled
// Model (a Popularity map and nothing else) is ranked as given.
func (m *Model) popular() ranking {
	if len(m.ranked) != len(m.Popularity) {
		return rankPopularity(m.Popularity)
	}
	return m.ranked
}
