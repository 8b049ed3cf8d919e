package telemetry

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"pprox/internal/metrics"
)

// capturePusher records pushed snapshot bodies in memory.
type capturePusher struct {
	mu     sync.Mutex
	bodies [][]byte
	closed bool
}

func (p *capturePusher) Push(_ context.Context, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bodies = append(p.bodies, append([]byte(nil), body...))
	return nil
}

func (p *capturePusher) Stats() TransportStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return TransportStats{Pushes: uint64(len(p.bodies))}
}

func (p *capturePusher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
}

func (p *capturePusher) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.bodies)
}

func (p *capturePusher) last(t *testing.T) Snapshot {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bodies) == 0 {
		t.Fatal("no snapshots pushed")
	}
	var s Snapshot
	if err := json.Unmarshal(p.bodies[len(p.bodies)-1], &s); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return s
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEmitterDeltas: counters report increases since the previous
// snapshot, gauges appear only as absolute series, zero deltas are
// omitted, and Seq counts every assembled snapshot.
func TestEmitterDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	served := reg.Counter("pprox_lrs_posts_total", "served")
	reg.Gauge("pprox_go_goroutines", "gauge", func() float64 { return 7 })
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{Node: "lrs-0", Role: "lrs", Registry: reg, Pusher: p})
	if err != nil {
		t.Fatal(err)
	}

	served.Add(3)
	if err := em.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := p.last(t)
	if s.Seq != 1 || s.Node != "lrs-0" || s.Role != "lrs" {
		t.Fatalf("snapshot header: %+v", s)
	}
	if got := s.Deltas["pprox_lrs_posts_total"]; got != 3 {
		t.Errorf("first delta = %g, want 3", got)
	}
	if got := s.Series["pprox_go_goroutines"]; got != 7 {
		t.Errorf("gauge series = %g, want 7", got)
	}
	if _, ok := s.Deltas["pprox_go_goroutines"]; ok {
		t.Error("gauge must never appear in deltas")
	}

	served.Add(2)
	if err := em.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	s = p.last(t)
	if s.Seq != 2 {
		t.Errorf("seq = %d, want 2", s.Seq)
	}
	if got := s.Deltas["pprox_lrs_posts_total"]; got != 2 {
		t.Errorf("second delta = %g, want 2 (increase only)", got)
	}
	if got := s.Series["pprox_lrs_posts_total"]; got != 5 {
		t.Errorf("absolute series = %g, want 5", got)
	}

	// No change: the zero delta is omitted entirely.
	if err := em.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s = p.last(t); len(s.Deltas) != 0 {
		t.Errorf("idle flush deltas = %v, want none", s.Deltas)
	}

	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	if !p.closed {
		t.Error("Close must close the pusher")
	}
}

// TestEmitterFilter scopes a shared-registry emitter to its own node's
// series, the way cluster deployments separate per-node telemetry.
func TestEmitterFilter(t *testing.T) {
	reg := metrics.NewRegistry()
	vec := reg.CounterVec("pprox_proxy_requests_served_total", "served", "node")
	vec.With("ua-0").Add(4)
	vec.With("ua-1").Add(9)
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{
		Node: "ua-0", Registry: reg, Pusher: p,
		Filter: func(series string) bool {
			_, labels := metrics.ParseSeries(series)
			n, ok := labels["node"]
			return !ok || n == "ua-0"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := p.last(t)
	for series := range s.Series {
		if _, labels := metrics.ParseSeries(series); labels["node"] == "ua-1" {
			t.Errorf("foreign node series leaked: %s", series)
		}
	}
	if got := s.Deltas[`pprox_proxy_requests_served_total{node="ua-0"}`]; got != 4 {
		t.Errorf("own-node delta = %g, want 4 (series: %v)", got, s.Deltas)
	}
}

// TestEmitterEpochsAndHeartbeat: ObserveEpoch kicks a push and stamps
// the batch size; the heartbeat keeps pushing with no epochs at all.
func TestEmitterEpochsAndHeartbeat(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{
		Node: "ua-0", Registry: reg, Pusher: p,
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()

	em.ObserveEpoch(1, 8)
	waitFor(t, func() bool { return p.count() >= 1 }, "epoch-kicked push")
	if s := p.last(t); s.LastBatch != 8 || s.Epoch == 0 {
		t.Errorf("epoch snapshot: batch=%d epoch=%d, want batch 8, epoch > 0", s.LastBatch, s.Epoch)
	}
	if s := p.last(t); s.IntervalSeconds != 0.005 {
		t.Errorf("interval hint = %g, want 0.005", s.IntervalSeconds)
	}

	// With no further epochs, the heartbeat alone keeps the node alive
	// at the collector.
	base := p.count()
	waitFor(t, func() bool { return p.count() >= base+3 }, "heartbeat pushes")
}

// TestEmitterEpochIsTheLayersEpoch: on a proxy node the snapshot's Epoch
// is the number of the layer's latest released epoch — the number its
// epoch records and /perf exemplars carry — however many heartbeats pass.
func TestEmitterEpochIsTheLayersEpoch(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{
		Node: "ua-0", Registry: reg, Pusher: p,
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()

	em.ObserveEpoch(1, 8)
	waitFor(t, func() bool { return p.count() >= 5 }, "heartbeat pushes after the epoch")
	if s := p.last(t); s.Epoch != 1 || s.LastBatch != 8 {
		t.Errorf("snapshot after %d pushes: epoch=%d batch=%d, want epoch 1, batch 8", p.count(), s.Epoch, s.LastBatch)
	}
}

// TestEmitterPauseResume: a paused emitter pushes nothing (the cluster
// pauses a killed node's emitter); Resume schedules a push immediately.
func TestEmitterPauseResume(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{Node: "ua-0", Registry: reg, Pusher: p})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()

	em.Pause()
	em.ObserveEpoch(1, 8)
	time.Sleep(20 * time.Millisecond)
	if got := p.count(); got != 0 {
		t.Fatalf("paused emitter pushed %d snapshots", got)
	}

	em.Resume()
	waitFor(t, func() bool { return p.count() >= 1 }, "post-resume push")
}

// TestEmitterCloseFlushes: Close pushes one final snapshot so the last
// epoch's state reaches the collector before the process exits — unless
// the emitter is paused (a "dead" node must not report from the grave).
func TestEmitterCloseFlushes(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &capturePusher{}
	em, err := NewEmitter(EmitterConfig{Node: "ua-0", Registry: reg, Pusher: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.count(); got != 1 {
		t.Fatalf("Close pushed %d snapshots, want 1", got)
	}

	p2 := &capturePusher{}
	em2, err := NewEmitter(EmitterConfig{Node: "ua-1", Registry: reg, Pusher: p2})
	if err != nil {
		t.Fatal(err)
	}
	em2.Pause()
	if err := em2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p2.count(); got != 0 {
		t.Fatalf("paused Close pushed %d snapshots, want 0", got)
	}
}

// TestEmitterRequiredConfig: construction fails fast on missing wiring.
func TestEmitterRequiredConfig(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &capturePusher{}
	for _, cfg := range []EmitterConfig{
		{Registry: reg, Pusher: p},
		{Node: "n", Pusher: p},
		{Node: "n", Registry: reg},
	} {
		if _, err := NewEmitter(cfg); err == nil {
			t.Errorf("NewEmitter(%+v) succeeded, want error", cfg)
		}
	}
}
