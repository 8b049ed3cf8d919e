package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/fleet"
	"pprox/internal/metrics"
)

// DefaultPushTimeout bounds one snapshot delivery.
const DefaultPushTimeout = 5 * time.Second

// Pusher delivers one encoded snapshot to the collector. Client is the
// production implementation; tests substitute capturing pushers.
type Pusher interface {
	// Push delivers one JSON-encoded Snapshot.
	Push(ctx context.Context, body []byte) error
	// Stats reports cumulative transport counters for embedding in the
	// next snapshot.
	Stats() TransportStats
	// Close releases pooled connections.
	Close()
}

// EmitterConfig configures an Emitter. Node, Registry and Pusher are
// required.
type EmitterConfig struct {
	// Node and Role stamp every snapshot.
	Node string
	Role string

	// Registry is sampled at each flush.
	Registry *metrics.Registry

	// Filter, when set, keeps only series for which it returns true.
	// Cluster deployments share one registry across nodes and use this
	// to scope each emitter to its own node's series.
	Filter func(series string) bool

	// AuditState and PerfState, when set, are sampled at each flush.
	AuditState func() string
	PerfState  func() string

	// Fleet, when set, samples the elastic-fleet overview at each flush.
	// Only the node hosting the fleet registry sets it.
	Fleet func() *fleet.Overview

	// Pusher delivers snapshots; the emitter owns it and closes it.
	Pusher Pusher

	// Interval is the heartbeat: a flush fires at least this often even
	// when no shuffle epochs do, so an idle node stays distinguishable
	// from a dead one at the collector. Zero means epoch-driven only
	// (flushes happen solely when ObserveEpoch fires).
	Interval time.Duration

	// PushTimeout bounds one delivery (default DefaultPushTimeout).
	PushTimeout time.Duration

	Logger *slog.Logger
}

// Emitter assembles and pushes one snapshot per observed epoch. Epoch
// notifications coalesce: at most one assembly+push is in flight, and a
// burst of flushes during a slow push collapses into one trailing
// snapshot (snapshots carry cumulative state, so nothing is lost).
type Emitter struct {
	cfg EmitterConfig

	seq       atomic.Uint64
	epoch     atomic.Uint64
	lastBatch atomic.Int64
	paused    atomic.Bool

	kick     chan struct{}
	done     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	// prev holds the previous flush's monotonic samples for delta
	// computation; guarded by mu because Flush may race the loop.
	mu   sync.Mutex
	prev map[string]float64
}

// NewEmitter starts an emitter and its background push loop.
func NewEmitter(cfg EmitterConfig) (*Emitter, error) {
	if cfg.Node == "" {
		return nil, errors.New("telemetry: emitter needs a node name")
	}
	if cfg.Registry == nil {
		return nil, errors.New("telemetry: emitter needs a registry")
	}
	if cfg.Pusher == nil {
		return nil, errors.New("telemetry: emitter needs a pusher")
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = DefaultPushTimeout
	}
	e := &Emitter{
		cfg:      cfg,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go e.loop()
	return e, nil
}

// ObserveEpoch records the layer's released epoch number epoch, of batch
// messages, and schedules a push. It is fed from the proxy layer's epoch
// observer and never blocks the flush path.
func (e *Emitter) ObserveEpoch(epoch uint64, batch int) {
	if batch > 0 {
		e.lastBatch.Store(int64(batch))
	}
	e.epoch.Store(epoch)
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Pause silences the emitter without tearing it down: epochs still
// count, but nothing is pushed. The cluster testbed pauses a killed
// node's emitter so the in-process handler does not keep reporting for
// a node whose listener is down.
func (e *Emitter) Pause() { e.paused.Store(true) }

// Resume re-enables pushes and immediately schedules one, so a restarted
// node reappears at the collector within one push rather than one epoch.
func (e *Emitter) Resume() {
	e.paused.Store(false)
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// Flush assembles and pushes one snapshot synchronously. SIGTERM drains
// call it (via Close) so the final epoch's state reaches the collector
// before listeners close.
func (e *Emitter) Flush(ctx context.Context) error {
	body, err := e.assemble()
	if err != nil {
		return err
	}
	return e.cfg.Pusher.Push(ctx, body)
}

// Close stops the loop, pushes one final snapshot (unless paused), and
// closes the pusher.
func (e *Emitter) Close() error {
	var err error
	e.stopOnce.Do(func() {
		close(e.done)
		<-e.loopDone
		if !e.paused.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), e.cfg.PushTimeout)
			err = e.Flush(ctx)
			cancel()
		}
		e.cfg.Pusher.Close()
	})
	return err
}

func (e *Emitter) loop() {
	defer close(e.loopDone)
	var tick <-chan time.Time
	if e.cfg.Interval > 0 {
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-e.done:
			return
		case <-e.kick:
		case <-tick:
		}
		if e.paused.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), e.cfg.PushTimeout)
		err := e.Flush(ctx)
		cancel()
		if err != nil && e.cfg.Logger != nil {
			e.cfg.Logger.Debug("telemetry push failed", "node", e.cfg.Node, "error", err)
		}
	}
}

// assemble samples the registry and renders the next snapshot.
func (e *Emitter) assemble() ([]byte, error) {
	values, monotonic := e.cfg.Registry.SnapshotDetailed()
	if e.cfg.Filter != nil {
		for k := range values {
			if !e.cfg.Filter(k) {
				delete(values, k)
				delete(monotonic, k)
			}
		}
	}

	e.mu.Lock()
	deltas := make(map[string]float64)
	for k := range monotonic {
		v := values[k]
		d := v - e.prev[k]
		if d < 0 {
			// The series restarted under us (re-registered registry);
			// treat the new absolute value as the whole delta.
			d = v
		}
		if d != 0 {
			deltas[k] = d
		}
	}
	prev := make(map[string]float64, len(monotonic))
	for k := range monotonic {
		prev[k] = values[k]
	}
	e.prev = prev
	seq := e.seq.Add(1)
	e.mu.Unlock()

	snap := Snapshot{
		Node:            e.cfg.Node,
		Role:            e.cfg.Role,
		Seq:             seq,
		Epoch:           e.epoch.Load(),
		LastBatch:       int(e.lastBatch.Load()),
		IntervalSeconds: e.cfg.Interval.Seconds(),
		Build:           metrics.ReadBuildInfo(),
		Series:          values,
		Deltas:          deltas,
		Transport:       e.cfg.Pusher.Stats(),
	}
	if e.cfg.AuditState != nil {
		snap.AuditState = e.cfg.AuditState()
	}
	if e.cfg.PerfState != nil {
		snap.PerfState = e.cfg.PerfState()
	}
	if e.cfg.Fleet != nil {
		snap.Fleet = e.cfg.Fleet()
	}
	return json.Marshal(&snap)
}
