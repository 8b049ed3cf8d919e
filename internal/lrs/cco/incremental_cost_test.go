package cco

import (
	"testing"

	"pprox/internal/workload"
)

// benchTrainer is the repository benchmark's downsampling (lrs10x): windows
// of 20 and rows capped at 30 are both reached on every insert.
func benchTrainer() Config {
	return Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
}

// scaledStream is the repository benchmark's event stream: n events at 10×
// the paper's MovieLens cardinality.
func scaledStream(seed int64, n int) []Event {
	p := workload.ScaledMovieLensParams(10)
	p.Events, p.Seed = n, seed
	evs := make([]Event, n)
	for i, ev := range workload.Generate(p).Events {
		evs[i] = Event{User: ev.User, Item: ev.Item}
	}
	return evs
}

// seedEvents and heldOutEvents split the stream as the benchmark does: the
// model is seeded with the first, the measured applies are the second.
const seedEvents, heldOutEvents = 6000, 1200

var updatesSink []RowUpdate

// BenchmarkIncrementalApply prices one online event on a seeded model: the
// fold, re-scoring every row it touched, and the returned rows.
func BenchmarkIncrementalApply(b *testing.B) {
	events := scaledStream(1, seedEvents+heldOutEvents)
	b.ReportAllocs()
	var applied, rows int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := NewIncremental(benchTrainer())
		for _, ev := range events[:seedEvents] {
			inc.Apply(ev)
		}
		b.StartTimer()
		for _, ev := range events[seedEvents:] {
			updatesSink = inc.Apply(ev)
			rows += len(updatesSink)
		}
		applied += heldOutEvents
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(applied), "ns/event")
	b.ReportMetric(float64(rows)/float64(applied), "rows/event")
}

// TestApplyAllocs pins what a steady-state Apply allocates: the updates
// slice and one slice per returned non-empty row — no maps, no per-row
// scratch. Steady state is built, not assumed: every item has been posted
// before (interned, its rows grown to the lengths they reach again), the
// user exists, and its seen-set has room, so what is left is what Apply
// itself allocates.
func TestApplyAllocs(t *testing.T) {
	cfg := benchTrainer()
	inc := NewIncremental(cfg)
	items := make([]string, 400)
	for i := range items {
		items[i] = workload.ItemID(i)
	}
	for _, u := range []string{"warm-1", "warm-2", "warm-3"} {
		for _, it := range items {
			inc.Apply(Event{User: u, Item: it})
		}
	}
	const user = "steady"
	next := cfg.MaxInteractionsPerUser
	for _, it := range items[:next] {
		inc.Apply(Event{User: user, Item: it}) // fill the window
	}
	uw := inc.users[user]
	uw.seen = append(make([]int32, 0, len(items)), uw.seen...)

	var rows, nonEmpty int
	allocs := testing.AllocsPerRun(200, func() {
		updatesSink = inc.Apply(Event{User: user, Item: items[next]})
		next++
		rows += len(updatesSink)
		for _, up := range updatesSink {
			if len(up.Indicators) > 0 {
				nonEmpty++
			}
		}
	})
	calls := next - cfg.MaxInteractionsPerUser // AllocsPerRun adds a warm-up call
	if rows != calls*(cfg.MaxInteractionsPerUser+1) || nonEmpty%calls != 0 {
		t.Fatalf("%d applies returned %d rows, %d of them non-empty: not the same shape every time", calls, rows, nonEmpty)
	}
	if want := float64(1 + nonEmpty/calls); allocs != want {
		t.Errorf("a steady-state Apply allocates %v times, want %v (the updates slice + %d non-empty rows)",
			allocs, want, nonEmpty/calls)
	}
}
