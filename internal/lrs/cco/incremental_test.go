package cco

import (
	"fmt"
	"math/rand"
	"reflect"
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
// row for that item).
func TestIncrementalRowUpdatesMatchBatchRows(t *testing.T) {
	cfg := Config{MaxInteractionsPerUser: 3, MaxCorrelatorsPerItem: 2}
	events := randomStream(7, 250, 5, 10)
	inc := NewIncremental(cfg)
	for i, ev := range events {
		updates := inc.Apply(ev)
		batch := Train(events[:i+1], cfg)
		for _, up := range updates {
			want := batch.Indicators[up.Item]
			if len(up.Indicators) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(up.Indicators, want) {
				t.Fatalf("event %d: row %q = %v, batch %v", i, up.Item, up.Indicators, want)
			}
		}
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
