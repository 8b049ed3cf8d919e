package engine

import (
	"runtime"
	"testing"

	"pprox/internal/workload"
)

// postedBenchEngine is benchEngine with the events posted and no read
// between them: every row they touched is pending, the index still empty.
func postedBenchEngine(tb testing.TB, events []workload.Event) *Engine {
	e := benchEngine(tb)
	for _, ev := range events {
		e.InsertEvent(ev.User, ev.Item, ev.Rating)
	}
	return e
}

// liveHeap returns the live heap after two collections: the first frees
// what is garbage, the second what sync.Pool's victim cache still held.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// refreshHeap returns the live heap the engine's first Refresh adds: the
// serving state built from every scored row.
func refreshHeap(e *Engine) int64 {
	before := liveHeap()
	e.Refresh()
	return liveHeap() - before
}

// TestRefreshHeapCeiling pins the live heap the benchmark's Refresh adds,
// in the style of TestHeapPerEventCeiling: the ceiling is the recorded
// baseline × 1.25, and a change that moves it on purpose records the new
// baseline with it. The serving state is some 950 item documents of up
// to 30 indicators, held by the index as term IDs and slots, with no
// scored copy of the rows beside it; a map per document and a retained
// primary model cost 1,677 kB here.
func TestRefreshHeapCeiling(t *testing.T) {
	const baseline = 423 << 10 // bytes
	ceiling := int64(baseline * 5 / 4)
	got := refreshHeap(postedBenchEngine(t, scaledEvents(601, 6000)))
	if got > ceiling {
		t.Errorf("Refresh adds %d kB of live heap, ceiling %d kB (baseline %d kB)", got>>10, ceiling>>10, baseline>>10)
	}
	t.Logf("Refresh adds %d kB of live heap (ceiling %d kB)", got>>10, ceiling>>10)
}

// BenchmarkEngineRefresh prices the benchmark's Refresh: every row of the
// seeded model scored and written into a fresh index. live-B is the heap
// the first Refresh adds, B/op what each one allocates.
func BenchmarkEngineRefresh(b *testing.B) {
	e := postedBenchEngine(b, scaledEvents(601, 6000))
	live := refreshHeap(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Refresh()
	}
	b.ReportMetric(float64(live), "live-B")
}
