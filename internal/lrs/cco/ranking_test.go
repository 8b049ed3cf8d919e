package cco

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// referencePopular is the cold-start ranking as it was computed before
// the maintained view existed — copy the map, sort by (count desc, item
// asc), cut at n. It is the order every other implementation must
// reproduce bit for bit.
func referencePopular(pop map[string]int, n int) []string {
	type entry struct {
		item  string
		count int
	}
	all := make([]entry, 0, len(pop))
	for it, c := range pop {
		all = append(all, entry{it, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].item
	}
	return out
}

// TestRankingTracksBatchAfterEveryApply is the equality contract of the
// maintained ranking: over random streams with tiny windows (so that
// evictions, decrements and removals at zero happen constantly) and a
// small item universe (so that counts tie heavily), after every single
// Apply the incremental PopularItems equals batch Train's over the same
// prefix, both equal the reference sort, and the view holds exactly the
// items the popularity map holds.
func TestRankingTracksBatchAfterEveryApply(t *testing.T) {
	var inserts, increments, decrements, removals int
	for seed := int64(1); seed <= 6; seed++ {
		for _, window := range []int{1, 2, 3} {
			cfg := Config{MaxInteractionsPerUser: window, MaxCorrelatorsPerItem: 3}
			events := randomStream(seed, 300, 7, 9)
			inc := NewIncremental(cfg)
			prev := map[string]int{}
			for i, ev := range events {
				inc.Apply(ev)
				batch := Train(events[:i+1], cfg)
				if _, items, _ := inc.Counts(); len(inc.rank) != items || items != len(batch.Popularity) {
					t.Fatalf("seed %d window %d event %d: view has %d entries, pop %d, batch pop %d",
						seed, window, i, len(inc.rank), items, len(batch.Popularity))
				}
				size := len(batch.Popularity)
				for _, n := range []int{0, 1, 20, size, size + 5} {
					got := inc.PopularItems(n)
					want := batch.PopularItems(n)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d window %d event %d n=%d:\nincremental %v\nbatch       %v", seed, window, i, n, got, want)
					}
					if ref := referencePopular(batch.Popularity, n); !reflect.DeepEqual(want, ref) {
						t.Fatalf("seed %d window %d event %d n=%d:\nbatch     %v\nreference %v", seed, window, i, n, want, ref)
					}
				}
				// Classify what this event did to the counts, to prove
				// the streams reach all four delta cases.
				for it, c := range batch.Popularity {
					switch p := prev[it]; {
					case p == 0:
						inserts++
					case c > p:
						increments++
					case c < p:
						decrements++
					}
				}
				for it := range prev {
					if _, ok := batch.Popularity[it]; !ok {
						removals++
					}
				}
				prev = batch.Popularity
			}
		}
	}
	if inserts == 0 || increments == 0 || decrements == 0 || removals == 0 {
		t.Fatalf("streams missed a delta case: %d inserts, %d increments, %d decrements, %d removals",
			inserts, increments, decrements, removals)
	}
}

// TestModelPopularItemsHandBuilt: a Model assembled from a Popularity
// map alone (no trainer ran, so no precomputed ranking) still answers in
// the reference order, skip set included.
func TestModelPopularItemsHandBuilt(t *testing.T) {
	m := &Model{Popularity: map[string]int{"b": 2, "a": 2, "c": 5, "d": 1}}
	if got, want := m.PopularItems(3), []string{"c", "a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PopularItems(3) = %v, want %v", got, want)
	}
	got := m.AppendPopular([]string{"x"}, 3, map[string]bool{"a": true})
	if want := []string{"x", "c", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendPopular = %v, want %v", got, want)
	}
	if got := (&Model{}).PopularItems(4); len(got) != 0 {
		t.Fatalf("empty model popular = %v", got)
	}
}

// TestRankingUnderConcurrentPostsAndGets: gets read the view while posts
// re-rank it. Run under -race this proves the view shares Apply's lock;
// afterwards the view must still be a fresh sort of the counts.
func TestRankingUnderConcurrentPostsAndGets(t *testing.T) {
	inc := NewIncremental(Config{MaxInteractionsPerUser: 2, MaxCorrelatorsPerItem: 3})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for _, ev := range randomStream(int64(w+1), 400, 7, 9) {
				inc.Apply(ev)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if got := inc.AppendPopular(nil, 4, map[string]bool{"i03": true}); len(got) > 4 {
					t.Errorf("AppendPopular(4) returned %v", got)
				}
				inc.PopularItems(20)
			}
		}()
	}
	wg.Wait()
	if got, want := inc.PopularItems(20), referencePopular(inc.Model().Popularity, 20); !reflect.DeepEqual(got, want) {
		t.Fatalf("after concurrent traffic the view reads %v, a fresh sort %v", got, want)
	}
}

// syntheticPopularity builds a catalogue of n distinct items whose counts
// tie heavily (nine distinct values), the shape a long-tailed catalogue
// has.
func syntheticPopularity(n int) map[string]int {
	pop := make(map[string]int, n)
	for i := 0; i < n; i++ {
		pop[fmt.Sprintf("item-%06d", i)] = 1 + (i*7)%9
	}
	return pop
}

// syntheticIncremental is an Incremental whose popularity state is the
// given map, as if that many events had been applied.
func syntheticIncremental(pop map[string]int) *Incremental {
	inc := NewIncremental(DefaultConfig())
	for _, e := range rankPopularity(pop) {
		id := inc.intern(e.item)
		inc.pop[id] = int32(e.count)
		inc.rank = append(inc.rank, idRanked{id, int32(e.count)})
	}
	return inc
}

// TestRankingAllocs pins the allocation cost of the two hot paths: a get
// allocates the slice it returns and nothing else, and re-ranking an item
// that is already in the view allocates nothing.
func TestRankingAllocs(t *testing.T) {
	pop := syntheticPopularity(2000)
	inc := syntheticIncremental(pop)
	if a := testing.AllocsPerRun(100, func() { sink = inc.PopularItems(20) }); a != 1 {
		t.Errorf("Incremental.PopularItems(20) allocates %v times, want 1", a)
	}
	m := inc.Model()
	if a := testing.AllocsPerRun(100, func() { sink = m.PopularItems(20) }); a != 1 {
		t.Errorf("Model.PopularItems(20) allocates %v times, want 1", a)
	}
	const item = "item-001000"
	c := pop[item]
	if a := testing.AllocsPerRun(100, func() {
		inc.rank.move(inc.ids[item], c, c+1, inc.names)
		inc.rank.move(inc.ids[item], c+1, c, inc.names)
	}); a != 0 {
		t.Errorf("re-ranking an existing item allocates %v times, want 0", a)
	}
	if !reflect.DeepEqual(inc.PopularItems(len(pop)), referencePopular(pop, len(pop))) {
		t.Error("view out of order after moving an item up and back")
	}
}

var sink []string

// catalogueSizes are the distinct-item counts the cost benchmarks run at:
// a small catalogue, the paper's MovieLens slice (17,141 items), and ten
// times that.
var catalogueSizes = []int{1_000, 17_000, 171_000}

// BenchmarkPopularItems: a top-20 read must cost the same at every
// catalogue size, on the live view and on a built model alike.
func BenchmarkPopularItems(b *testing.B) {
	for _, size := range catalogueSizes {
		inc := syntheticIncremental(syntheticPopularity(size))
		m := inc.Model()
		b.Run(fmt.Sprintf("incremental/items=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = inc.PopularItems(20)
			}
		})
		b.Run(fmt.Sprintf("batch/items=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = m.PopularItems(20)
			}
		})
	}
}

// BenchmarkRankingMove prices what Apply pays to keep the view current:
// one count-1 item gaining a user and losing it again, which crosses the
// whole tie group — the longest span a ±1 delta can move.
func BenchmarkRankingMove(b *testing.B) {
	for _, size := range catalogueSizes {
		inc := syntheticIncremental(syntheticPopularity(size))
		r, names := inc.rank, inc.names
		id := r[len(r)-1].id
		b.Run(fmt.Sprintf("items=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.move(id, 1, 2, names)
				r.move(id, 2, 1, names)
			}
		})
	}
}
