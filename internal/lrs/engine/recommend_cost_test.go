package engine

import (
	"math"
	"testing"

	"pprox/internal/workload"
)

// seededBenchEngine is the repository benchmark's engine as a measured
// window finds it: benchEngine seeded with 6,000 events of seed 601 and
// refreshed. It returns the seeded users, in order of first appearance.
func seededBenchEngine(tb testing.TB) (*Engine, []string) {
	events := scaledEvents(601, 6000)
	e := postedBenchEngine(tb, events)
	e.Refresh()
	return e, (&workload.Dataset{Events: events}).DistinctUsers()
}

// TestRecommendAllocationCeiling pins the heap allocations of one get at
// the benchmark's shape — a user's history read from the store, a query of
// about two clauses over about 150 candidates, twenty recommendations —
// in the style of the root package's TestAllocationCeilings: the ceiling
// is the recorded baseline × 1.25, rounded down, and a change that moves
// the count on purpose records the new baseline with it. The query itself
// allocates once (search's TestSearchAllocs); the rest is the history.
func TestRecommendAllocationCeiling(t *testing.T) {
	const baseline = 22
	e, users := seededBenchEngine(t)
	i := 0
	// Every user once: the first to appear are the most active, with the
	// longest histories.
	got := testing.AllocsPerRun(len(users), func() {
		e.Recommend(users[i%len(users)], 20)
		i++
	})
	ceiling := math.Floor(baseline * 1.25)
	if got > ceiling {
		t.Errorf("Recommend allocates %.0f times per get, ceiling %.0f (baseline %d)", got, ceiling, baseline)
	}
	t.Logf("Recommend: %.0f allocs/get (ceiling %.0f)", got, ceiling)
}

// BenchmarkEngineRecommend prices one get below the REST handler on the
// seeded benchmark engine, cycling through its users.
func BenchmarkEngineRecommend(b *testing.B) {
	e, users := seededBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recSink = e.Recommend(users[i%len(users)], 20)
	}
}

var recSink []string
