package store

import (
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pprox/internal/workload"
)

// benchShapeEvents is the repository benchmark's event log: 6,600 events
// of its 10×-MovieLens stream, stored as the engine stores a post.
func benchShapeEvents() []map[string]string {
	p := workload.ScaledMovieLensParams(10)
	p.Events, p.Seed = 6600, 601
	events := workload.Generate(p).Events
	out := make([]map[string]string, len(events))
	for i, ev := range events {
		out[i] = map[string]string{"user": ev.User, "item": ev.Item, "payload": ev.Rating, "type": ""}
	}
	return out
}

// fillLog inserts events into a fresh four-shard log indexed by user, as
// the engine opens it: in memory, or WAL-backed under dir when it is set.
// Each event's strings are fresh copies, as a decoded request's are, so
// whatever the log retains of them counts.
func fillLog(tb testing.TB, events []map[string]string, dir string) *ShardedLog {
	l, err := OpenShardedLog(ShardedConfig{Shards: 4, IndexFields: []string{"user"}, Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	for _, ev := range events {
		fields := make(map[string]string, len(ev))
		for k, v := range ev {
			fields[k] = strings.Clone(v)
		}
		if _, err := l.Insert(fields); err != nil {
			tb.Fatal(err)
		}
	}
	return l
}

// liveHeap returns the live heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerEvent returns the live heap bytes a log of the benchmark's shape
// holds per stored event.
func heapPerEvent(tb testing.TB, events []map[string]string) float64 {
	before := liveHeap()
	l := fillLog(tb, events, "")
	after := liveHeap()
	runtime.KeepAlive(l)
	return float64(int64(after)-int64(before)) / float64(len(events))
}

// TestHeapPerEventCeiling pins the live heap one stored event costs at
// the benchmark's shape, in the style of the root package's
// TestAllocationCeilings: the ceiling is the recorded baseline × 1.25,
// and a change that moves it on purpose records the new baseline with
// it. A record is its sequence number and one packed string, plus a
// position in the user index; a map per document costs about three
// times as much.
func TestHeapPerEventCeiling(t *testing.T) {
	const baseline = 113 // bytes per event
	got := heapPerEvent(t, benchShapeEvents())
	ceiling := math.Floor(baseline * 1.25)
	if got > ceiling {
		t.Errorf("a stored event holds %.0f B of heap, ceiling %.0f (baseline %d)", got, ceiling, baseline)
	}
	t.Logf("heap per stored event: %.0f B (ceiling %.0f)", got, ceiling)
}

// BenchmarkShardedLogInsert prices seeding the benchmark's log: each
// iteration fills a fresh four-shard log with its 6,600 events.
// ns/event is the insert time, B/event the live heap the log then holds.
func BenchmarkShardedLogInsert(b *testing.B) {
	events := benchShapeEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logSink = fillLog(b, events, "")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	b.ReportMetric(heapPerEvent(b, events), "B/event")
}

// BenchmarkShardedLogInsertWAL is BenchmarkShardedLogInsert on the
// WAL-backed shards the engine runs with a WAL directory (no fsync, its
// default): the difference between the two is the price of the WAL
// append, one frame encode and one write per event.
func BenchmarkShardedLogInsertWAL(b *testing.B) {
	events := benchShapeEvents()
	base := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fillLog(b, events, filepath.Join(base, strconv.Itoa(i)))
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// BenchmarkShardedLogFindBy prices a get's history read on the seeded
// log, cycling through its users; B/event is the heap allocated per
// document returned.
func BenchmarkShardedLogFindBy(b *testing.B) {
	events := benchShapeEvents()
	l := fillLog(b, events, "")
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	returned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docsSink = l.FindBy("user", events[i%len(events)]["user"])
		returned += len(docsSink)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-allocated)/float64(returned), "B/event")
}

var (
	logSink  *ShardedLog
	docsSink []Document
)
