// Package telemetry streams epoch-granular node snapshots to a fleet
// collector (cmd/pprox-ops) and aggregates them into fleet rollups.
//
// Privacy stance: the collector sits OUTSIDE the trust boundary. A
// snapshot therefore carries only what the node's public /metrics
// endpoint already exposes — epoch-aggregated series, SLO and audit
// states, build identity — and never a wall-clock per-record timestamp
// or any request identity. Snapshots are assembled at shuffle-flush
// time (or on a coarse timer for shuffler-less nodes), so their cadence
// reveals nothing beyond the epoch boundaries a network adversary
// already observes.
package telemetry

import (
	"pprox/internal/fleet"
	"pprox/internal/metrics"
)

// FleetPath serves the collector's aggregated fleet report as JSON.
const FleetPath = "/fleet"

// Snapshot is one node's epoch-granular telemetry record.
//
// There is deliberately no time.Time anywhere in this struct: ordering
// is carried by Seq (per-emitter monotonic) and Epoch (the latest
// shuffle epoch), both of which are epoch-granular by construction. The
// collector keys staleness off its own arrival clock.
type Snapshot struct {
	// Node and Role identify the emitting process ("ua-0", role "ua").
	Node string `json:"node"`
	Role string `json:"role,omitempty"`

	// Seq counts snapshots emitted by this emitter incarnation, from 1.
	// A snapshot whose Seq does not exceed the collector's high-water
	// mark for the node signals a restarted process; the collector
	// drops the stale incarnation's history.
	Seq uint64 `json:"seq"`

	// Epoch is the number of the layer's latest released epoch — the
	// number its epoch records, /perf exemplars and profile captures
	// carry (from 1; 0 before the first). Heartbeats leave it alone, so
	// it stays 0 on the LRS and the stub, which release no epochs.
	Epoch uint64 `json:"epoch"`

	// LastBatch is the size of the most recent shuffle flush (the
	// per-epoch anonymity set), 0 when the node has no shuffler.
	LastBatch int `json:"last_batch,omitempty"`

	// IntervalSeconds is the emitter's heartbeat cadence (a config
	// constant, not a measurement): the slowest the node pushes when no
	// shuffle epochs fire. The collector floors its staleness estimate
	// at it so an idle-but-alive node never flaps stale between
	// heartbeats.
	IntervalSeconds float64 `json:"interval_seconds,omitempty"`

	// Build identifies the binary, for fleet-wide skew detection.
	Build metrics.BuildInfo `json:"build"`

	// AuditState and PerfState are the node's privacy-audit and
	// perf-SLO verdicts ("ok", "warn", "violated"), empty when the
	// node runs neither.
	AuditState string `json:"audit_state,omitempty"`
	PerfState  string `json:"perf_state,omitempty"`

	// Series holds the absolute sampled value of every exported series,
	// keyed exactly like Registry.Snapshot ("name{labels}" or
	// "name_bucket{...,le=...}").
	Series map[string]float64 `json:"series"`

	// Deltas holds, for monotonic series only (counters and histogram
	// components), the increase since this emitter's previous snapshot.
	// Zero deltas are omitted. Gauges never appear here.
	Deltas map[string]float64 `json:"deltas,omitempty"`

	// Transport describes the push channel itself, so the fleet view
	// shows telemetry-plane health (frame reuse, HTTP fallbacks).
	Transport TransportStats `json:"transport"`

	// Fleet carries the elastic-fleet view — registry membership and
	// recent scaling decisions — emitted only by the node hosting the
	// fleet registry (the deployment's control plane). Membership and
	// decisions are endpoint-granular, never request-granular, so the
	// privacy stance above is unchanged.
	Fleet *fleet.Overview `json:"fleet,omitempty"`
}

// TransportStats counts push-channel activity for one emitter.
type TransportStats struct {
	// Pushes and Errors count snapshot delivery attempts.
	Pushes uint64 `json:"pushes"`
	Errors uint64 `json:"errors,omitempty"`
	// Dials, Reuses and Fallbacks describe the hopwire client pool:
	// fresh frame connections, pooled reuses, and HTTP fallbacks taken
	// when the collector spoke no frames.
	Dials     uint64 `json:"dials,omitempty"`
	Reuses    uint64 `json:"reuses,omitempty"`
	Fallbacks uint64 `json:"fallbacks,omitempty"`
}
