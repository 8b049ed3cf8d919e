package metrics

import (
	"runtime"
	"sync"
	"time"
)

// memStatsTTL bounds how often a scrape may trigger runtime.ReadMemStats.
// Reading memstats stops the world briefly; one read serves every
// pprox_go_* series of a scrape, and scrapes closer together than the TTL
// (e.g. two operators scraping at once) share the cached
// read rather than pausing the process twice.
const memStatsTTL = 250 * time.Millisecond

// memStatsReader caches one runtime.MemStats read per TTL window.
type memStatsReader struct {
	mu   sync.Mutex
	at   time.Time
	last runtime.MemStats
}

func (m *memStatsReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > memStatsTTL {
		runtime.ReadMemStats(&m.last)
		m.at = time.Now()
	}
	return m.last
}

// RegisterRuntimeMetrics exposes the process's Go runtime state as the
// pprox_go_* families, sampled at collection time:
//
//	pprox_go_goroutines            live goroutines
//	pprox_go_heap_bytes            bytes of allocated heap objects
//	pprox_go_gc_pause_seconds_total cumulative stop-the-world GC pause
//	pprox_go_gomaxprocs            scheduler parallelism
//
// Every binary registers it beside RegisterBuildInfo, so any scrape — and
// any telemetry snapshot assembled from the registry — describes the
// process itself, not just the pipeline it runs. The values are process
// aggregates with no per-request resolution, so exporting them keeps the
// epoch-granularity discipline for free.
func RegisterRuntimeMetrics(r *Registry) {
	var ms memStatsReader
	r.Gauge("pprox_go_goroutines",
		"Goroutines currently live in this process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Gauge("pprox_go_heap_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(ms.read().HeapAlloc) })
	r.CounterFunc("pprox_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(ms.read().PauseTotalNs) / 1e9 })
	r.Gauge("pprox_go_gomaxprocs",
		"Value of GOMAXPROCS (scheduler parallelism).",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}
