package engine

import (
	"fmt"
	"net/http"

	"pprox/internal/message"
	"pprox/internal/metrics"
)

// RegisterMetrics exposes the engine's request counters — true monotonic
// counters with the Prometheus `_total` convention — plus the event-store
// gauge and a request service-time histogram family. It returns a wrapper
// that instruments an LRS REST handler with the histogram; node names
// this front end's series (empty defaults to "lrs").
func (e *Engine) RegisterMetrics(r *metrics.Registry, node string) func(http.Handler) http.Handler {
	if node == "" {
		node = "lrs"
	}
	r.CounterFunc("pprox_lrs_posts_total", "Feedback insertions accepted.", func() float64 {
		posts, _, _ := e.Stats()
		return float64(posts)
	})
	r.CounterFunc("pprox_lrs_queries_total", "Recommendation queries served.", func() float64 {
		_, queries, _ := e.Stats()
		return float64(queries)
	})
	r.CounterFunc("pprox_lrs_popular_fills_total",
		"Queries completed from the popularity ranking (cold start or too few hits).", func() float64 {
			return float64(e.PopularFills())
		})
	r.CounterFunc("pprox_lrs_trains_total", "Completed training runs.", func() float64 {
		_, _, trains := e.Stats()
		return float64(trains)
	})
	r.CounterFunc("pprox_lrs_dup_events_total",
		"Insertions dropped as idempotent duplicates of a retried event.", func() float64 {
			return float64(e.DupEvents())
		})
	r.Gauge("pprox_lrs_events", "Events in the store.", func() float64 {
		return float64(e.EventCount())
	})
	r.Gauge("pprox_lrs_shards", "Event-log shards.", func() float64 {
		return float64(e.NumShards())
	})
	r.Gauge("pprox_lrs_train_seconds", "Duration of the last batch training run.", func() float64 {
		return e.TrainSeconds()
	})
	r.CounterFunc("pprox_lrs_events_applied_total",
		"Events folded into the incremental model.", func() float64 {
			return float64(e.EventsApplied())
		})
	r.CounterFunc("pprox_lrs_rows_rescored_total",
		"Indicator rows re-scored by gets before they search, each once however many posts changed it since the last get.", func() float64 {
			return float64(e.RowsRescored())
		})
	r.CounterFunc("pprox_lrs_apply_seconds_total",
		"Cumulative time spent folding events into the incremental model and re-scoring the rows they changed.", func() float64 {
			return e.ApplySeconds()
		})
	r.CounterFunc("pprox_lrs_wal_errors_total",
		"Posts rejected because the WAL append failed.", func() float64 {
			return float64(e.WALErrors())
		})

	hv := r.HistogramVec("pprox_lrs_request_seconds",
		"LRS request service time.", nil, "node", "path")
	// Bound the path label to the fixed REST surface.
	known := map[string]bool{
		message.EventsPath: true, message.QueriesPath: true,
		message.HealthPath: true, "/train": true,
	}
	label := func(req *http.Request) []string {
		p := "other"
		if known[req.URL.Path] {
			p = req.URL.Path
		}
		return []string{node, p}
	}
	return func(h http.Handler) http.Handler {
		return metrics.InstrumentHandler(hv, label, h)
	}
}

// Health reports the engine's state for the /healthz endpoint: event
// store size and the served model summary. An untrained engine is alive
// (it answers with popularity fallbacks, normal at start-up), so the
// engine is always ready once it serves.
func (e *Engine) Health() metrics.Health {
	return metrics.Health{
		OK: true,
		Checks: map[string]string{
			"events": fmt.Sprintf("%d", e.EventCount()),
			"model":  e.ModelInfo(),
		},
	}
}
