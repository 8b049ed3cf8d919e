package cco

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomStream builds a deterministic event stream with heavy duplication
// (to exercise dedup) over a small universe (to force window evictions
// under tiny MaxInteractionsPerUser).
func randomStream(seed int64, n, users, items int) []Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			User: fmt.Sprintf("u%02d", rng.Intn(users)),
			Item: fmt.Sprintf("i%02d", rng.Intn(items)),
		}
	}
	return evs
}

// TestIncrementalConvergesToBatch is the convergence property test: for a
// matrix of stream shapes and configs, applying events one at a time
// yields — at every checkpoint prefix — a model deeply equal (including
// bitwise-equal LLR scores) to batch Train over the same prefix.
func TestIncrementalConvergesToBatch(t *testing.T) {
	cfgs := []Config{
		{MaxInteractionsPerUser: 3, MaxCorrelatorsPerItem: 2},             // constant evictions, tight rows
		{MaxInteractionsPerUser: 5, MaxCorrelatorsPerItem: 50},            // uncapped rows
		{MaxInteractionsPerUser: 4, MaxCorrelatorsPerItem: 3, MinLLR: .5}, // significance filtering
		{}, // defaults: no evictions at this scale
	}
	for seed := int64(1); seed <= 4; seed++ {
		for ci, cfg := range cfgs {
			t.Run(fmt.Sprintf("seed%d_cfg%d", seed, ci), func(t *testing.T) {
				events := randomStream(seed, 400, 6, 12)
				inc := NewIncremental(cfg)
				for i, ev := range events {
					inc.Apply(ev)
					// Checkpoints: a scattering of prefixes plus the full
					// stream; every one must match batch exactly.
					if (i+1)%97 != 0 && i != len(events)-1 {
						continue
					}
					want := Train(events[:i+1], cfg)
					got := inc.Model()
					if !reflect.DeepEqual(got.Indicators, want.Indicators) {
						t.Fatalf("prefix %d: indicators diverged\nincremental: %v\nbatch: %v", i+1, got.Indicators, want.Indicators)
					}
					if !reflect.DeepEqual(got.Popularity, want.Popularity) {
						t.Fatalf("prefix %d: popularity diverged\nincremental: %v\nbatch: %v", i+1, got.Popularity, want.Popularity)
					}
					if got.Users != want.Users {
						t.Fatalf("prefix %d: users %d, batch %d", i+1, got.Users, want.Users)
					}
					// The materialized model carries a copy of the live
					// ranking; both must read as batch's does.
					n := len(want.Popularity) + 1
					if p, q, w := got.PopularItems(n), inc.PopularItems(n), want.PopularItems(n); !reflect.DeepEqual(p, w) || !reflect.DeepEqual(q, w) {
						t.Fatalf("prefix %d: popular items diverged\nmodel: %v\nlive: %v\nbatch: %v", i+1, p, q, w)
					}
				}
			})
		}
	}
}

// TestIncrementalRowUpdatesMatchBatchRows checks the online re-scoring
// path: every row Apply returns must equal the corresponding row of the
// batch model over the same prefix (or be empty exactly when batch has no
// row for that item). The second stream is the repository benchmark's own
// shape — windows of 20, rows capped at 30, 10× MovieLens cardinality — so
// evictions, LLR ties at the cap boundary (a tie there is decided by item
// name, never by id) and the MinLLR cut are all hit where they are paid.
func TestIncrementalRowUpdatesMatchBatchRows(t *testing.T) {
	scaled := benchTrainer()
	scaled.MinLLR = 3
	for _, tc := range []struct {
		name   string
		cfg    Config
		events []Event
	}{
		{"tiny", Config{MaxInteractionsPerUser: 3, MaxCorrelatorsPerItem: 2}, randomStream(7, 250, 5, 10)},
		{"scaled", scaled, scaledStream(7, 1500)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := NewIncremental(tc.cfg)
			var evictions, capped, tiedAtCap, cut int
			for i, ev := range tc.events {
				updates := inc.Apply(ev)
				batch := Train(tc.events[:i+1], tc.cfg)
				for _, up := range updates {
					want := batch.Indicators[up.Item]
					if len(up.Indicators) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(up.Indicators, want) {
						t.Fatalf("event %d: row %q = %v, batch %v", i, up.Item, up.Indicators, want)
					}
				}
				// What this event exercised, read off the live counts.
				if len(updates) > 0 && len(inc.users[ev.User].seen) > tc.cfg.MaxInteractionsPerUser {
					evictions++
				}
				for _, up := range updates {
					id := inc.ids[up.Item]
					var scores []float64
					for _, p := range inc.rows[id] {
						if s := LLR(int(p.k), int(inc.pop[id]), int(inc.pop[p.other]), len(inc.users)); s > tc.cfg.MinLLR {
							scores = append(scores, s)
						}
					}
					if len(scores) < len(inc.rows[id]) {
						cut++
					}
					if n := len(up.Indicators); len(scores) > n {
						capped++
						sort.Float64s(scores)
						if best := scores[len(scores)-n:]; best[0] == scores[len(scores)-n-1] {
							tiedAtCap++ // the last kept and the first dropped score alike
						}
					}
				}
			}
			t.Logf("%d evictions, %d capped rows (%d tied at the cap), %d rows cut by MinLLR", evictions, capped, tiedAtCap, cut)
			if tc.name == "scaled" && (evictions == 0 || capped == 0 || tiedAtCap == 0 || cut == 0) {
				t.Fatal("the scaled stream missed a case it is there for")
			}
		})
	}
}

// TestTableLLREqualsLLR: the table is the function. For random and
// degenerate contingency tables — including totals far past what the
// table has been grown to — the table-read LLR is the same float64, bit
// for bit, as LLR's math.Log one.
func TestTableLLREqualsLLR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab xlogxTable
	check := func(k11, a, b, total int) {
		t.Helper()
		got, want := tab.llr(k11, a, b, total), LLR(k11, a, b, total)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("llr(%d, %d, %d, %d): table %v (%#x), LLR %v (%#x)",
				k11, a, b, total, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, d := range [][4]int{
		{0, 0, 0, 0}, {0, 0, 0, 1}, {1, 1, 1, 1}, {1, 1, 1, 2}, {0, 1, 1, 2},
		{-1, 1, 1, 5}, {2, 1, 3, 5}, {1, 3, 3, 4}, {1, 2, 2, 0}, {1, 2, 2, -3},
		{5, 5, 5, 5}, {3, 3, 9, 9}, {0, 4, 5, 9}, {1, 1, 1, 100000},
	} {
		check(d[0], d[1], d[2], d[3])
	}
	for i := 0; i < 20000; i++ {
		total := 1 + rng.Intn(1+i) // grows past the table's length as i does
		a, b := rng.Intn(total+2), rng.Intn(total+2)
		check(rng.Intn(min(a, b)+2)-1, a, b, total)
	}
	if len(tab) != 100001 {
		t.Fatalf("table holds %d entries after totals up to 100000, want one per integer", len(tab))
	}
	for x, v := range tab {
		if math.Float64bits(v) != math.Float64bits(xlogx(x)) {
			t.Fatalf("table[%d] = %v, xlogx = %v", x, v, xlogx(x))
		}
	}
}

// TestFoldEqualsApply: the count-only fold TrainNow reseeds with leaves
// the model Apply leaves — counts, ranking, every re-scored row — and the
// two keep agreeing when events are applied on top of either.
func TestFoldEqualsApply(t *testing.T) {
	cfg := benchTrainer()
	events := scaledStream(3, 3000)
	applied, folded := NewIncremental(cfg), NewIncremental(cfg)
	for _, ev := range events[:2500] {
		applied.Apply(ev)
		folded.Fold(ev)
	}
	same := func(stage string) {
		t.Helper()
		got, want := folded.Model(), applied.Model()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: folded model differs from applied model", stage)
		}
		if folded.Applied() != applied.Applied() {
			t.Fatalf("%s: folded %d events, applied %d", stage, folded.Applied(), applied.Applied())
		}
	}
	same("after the replay")
	for i, ev := range events[2500:] {
		if got, want := folded.Apply(ev), applied.Apply(ev); !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d on top: folded model returned %v, applied model %v", i, got, want)
		}
	}
	same("after applying on top")
}

// TestIncrementalReusesIDAfterEvictionToZero: ids are never reclaimed. An
// item whose every holder evicted it drops out of the model but keeps its
// id; posted again it counts under that id and the model still equals
// batch.
func TestIncrementalReusesIDAfterEvictionToZero(t *testing.T) {
	cfg := Config{MaxInteractionsPerUser: 2, MaxCorrelatorsPerItem: 10}
	events := []Event{{"u", "a"}, {"u", "b"}, {"u", "c"}, {"u", "d"}}
	inc := NewIncremental(cfg)
	for _, ev := range events {
		inc.Apply(ev)
	}
	id := inc.ids["a"]
	if _, items, _ := inc.Counts(); items != 2 || inc.pop[id] != 0 || len(inc.rows[id]) != 0 {
		t.Fatalf("a was not evicted to zero: %d items, pop %d, row %v", items, inc.pop[id], inc.rows[id])
	}
	events = append(events, Event{"v", "a"}, Event{"v", "d"}, Event{"w", "a"})
	for _, ev := range events[4:] {
		inc.Apply(ev)
	}
	if inc.ids["a"] != id || len(inc.names) != 4 {
		t.Fatalf("a came back as id %d of %d, was %d of 4", inc.ids["a"], len(inc.names), id)
	}
	got, want := inc.Model(), Train(events, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the re-post: incremental %v / %v, batch %v / %v", got.Indicators, got.Popularity, want.Indicators, want.Popularity)
	}
	if row := inc.Row("a"); len(row) != 1 || row[0].Item != "d" {
		t.Fatalf("re-posted item's row = %v, want one correlation with d", row)
	}
}

func TestIncrementalDuplicateIsNoop(t *testing.T) {
	inc := NewIncremental(Config{MaxInteractionsPerUser: 4, MaxCorrelatorsPerItem: 4})
	if got := inc.Apply(Event{User: "u", Item: "a"}); len(got) != 1 || got[0].Item != "a" {
		t.Fatalf("first apply updates = %v", got)
	}
	if got := inc.Apply(Event{User: "u", Item: "a"}); got != nil {
		t.Fatalf("duplicate apply returned %v, want nil", got)
	}
	if users, items, _ := inc.Counts(); users != 1 || items != 1 {
		t.Fatalf("counts after dup = (%d users, %d items)", users, items)
	}
	if inc.Applied() != 2 {
		t.Fatalf("applied = %d, want 2 (duplicates count as processed)", inc.Applied())
	}
}

// TestIncrementalEvictionDropsItem pins the sliding-window bookkeeping:
// once every window referencing an item has evicted it, the item vanishes
// from popularity and co-occurrence — no zombie zero-count entries.
func TestIncrementalEvictionDropsItem(t *testing.T) {
	inc := NewIncremental(Config{MaxInteractionsPerUser: 2, MaxCorrelatorsPerItem: 10})
	for _, it := range []string{"a", "b", "c", "d"} {
		inc.Apply(Event{User: "u", Item: it})
	}
	m := inc.Model()
	if _, ok := m.Popularity["a"]; ok {
		t.Fatalf("evicted item still popular: %v", m.Popularity)
	}
	if _, ok := m.Indicators["a"]; ok {
		t.Fatalf("evicted item still has indicators: %v", m.Indicators)
	}
	want := Train([]Event{{"u", "a"}, {"u", "b"}, {"u", "c"}, {"u", "d"}}, Config{MaxInteractionsPerUser: 2, MaxCorrelatorsPerItem: 10})
	if !reflect.DeepEqual(m.Indicators, want.Indicators) || !reflect.DeepEqual(m.Popularity, want.Popularity) {
		t.Fatalf("post-eviction model diverged from batch:\nincremental %v / %v\nbatch %v / %v",
			m.Indicators, m.Popularity, want.Indicators, want.Popularity)
	}
}

func TestIncrementalPopularItems(t *testing.T) {
	inc := NewIncremental(DefaultConfig())
	for _, ev := range []Event{{"u1", "a"}, {"u2", "a"}, {"u3", "a"}, {"u1", "b"}, {"u2", "b"}, {"u1", "c"}} {
		inc.Apply(ev)
	}
	got := inc.PopularItems(2)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("popular = %v, want [a b]", got)
	}
}
