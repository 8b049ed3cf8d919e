package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"pprox/internal/autoscale"
	"pprox/internal/fleet"
	"pprox/internal/node"
	"pprox/internal/proxy"
)

// ElasticSpec arms the closed autoscaling loop on a fleet deployment: a
// reconciler samples live signals and drives the deployed UA/IA pair
// count through AddPair/DrainPair, with every membership change
// epoch-aligned by the fleet registry.
type ElasticSpec struct {
	// Controller is the scaling policy; nil uses
	// autoscale.DefaultController().
	Controller *autoscale.Controller
	// Interval is the reconciler cadence. ≤ 0 never ticks on its own —
	// tests and operators drive Deployment.Reconciler.Tick directly.
	Interval time.Duration
	// DrainTimeout bounds one pair's graceful (soft) drain before the
	// hard phase refuses stragglers (node.Config.DrainTimeout).
	DrainTimeout time.Duration
}

// Pairs implements fleet.Driver: the live UA/IA pair count, counting
// pairs still pending admission but not pairs already draining (those
// are on their way out and no longer capacity).
func (d *Deployment) Pairs() int {
	if d.Registry == nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.UALayers)
	}
	return d.Registry.Count("ua", fleet.StatePending) +
		d.Registry.Count("ua", fleet.StateActive)
}

// AddPair implements fleet.Driver: it provisions and serves one new
// UA/IA pair — same key material, same options as the initial instances
// (§5: every instance of a layer shares the layer's secrets after
// attestation) — and registers it with the fleet registry. The pair
// enters PENDING and becomes routable only at the next shuffle-epoch
// boundary (or via the reconciler's idle admission), so scale-up can
// never siphon messages out of an epoch that is still filling.
func (d *Deployment) AddPair() error {
	if d.Registry == nil {
		return errors.New("cluster: fleet mode not enabled")
	}
	d.mu.Lock()
	iaAddr, uaAddr := fmt.Sprintf("ia-%d", d.nextIA), fmt.Sprintf("ua-%d", d.nextUA)
	d.nextIA++
	d.nextUA++
	d.mu.Unlock()

	// IA first: by the time the UA half can be admitted, its next hop
	// already serves.
	if err := d.addProxy(proxy.RoleIA, iaAddr); err != nil {
		return err
	}
	d.Registry.Register("ia", iaAddr)
	if err := d.addProxy(proxy.RoleUA, uaAddr); err != nil {
		return err
	}
	d.Registry.Register("ua", uaAddr)
	return nil
}

// DrainPair implements fleet.Driver: DrainPairContext bounded by the
// instances' drain timeout (ElasticSpec.DrainTimeout, default
// 2×ShuffleTimeout + 5s — long enough for the victims' final timer flush
// plus the in-flight tail).
func (d *Deployment) DrainPair() error {
	cfg, err := d.nodeConfig(proxy.RoleUA, "").Resolve()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	return d.DrainPairContext(ctx)
}

// DrainPairContext retires one UA/IA pair without ever splitting a
// shuffle epoch:
//
//  1. The registry moves both endpoints to DRAINING — the balancer stops
//     routing new connections to them at its next generation refresh.
//  2. Both layers soft-drain: they keep serving, but answer with
//     Connection: close so pooled keep-alive connections and frame links
//     evict themselves and redial through the balancer.
//  3. node.Drain waits — UA before IA, matching the request flow — until
//     in-flight requests and the shuffler buffer are both empty. The
//     final buffered epoch leaves through the shuffler's own timer
//     flush: one whole batch, never a forced sub-S release. If the
//     context expires first, the hard phase (RefuseNew) rejects
//     stragglers and a short grace period lets in-flight work finish;
//     an instance torn down still-dirty is recorded in its drain report
//     and trips the auditor's violation check.
//  4. Only then do the endpoints deregister and the instances shut
//     down.
//
// The newest active pair is the victim, never the last one: the fleet
// floor is one routable pair per layer.
func (d *Deployment) DrainPairContext(ctx context.Context) error {
	if d.Registry == nil {
		return errors.New("cluster: fleet mode not enabled")
	}
	d.drainMu.Lock()
	defer d.drainMu.Unlock()

	pick := func(service string) (string, *node.Proxy, error) {
		routable := d.Registry.Routable(service)
		if len(routable) <= 1 {
			return "", nil, fmt.Errorf("cluster: cannot drain %s below one routable instance", service)
		}
		addr := routable[len(routable)-1]
		p := d.Proxy(addr)
		if p == nil {
			return "", nil, fmt.Errorf("cluster: no layer serves %s", addr)
		}
		return addr, p, nil
	}
	uaAddr, ua, err := pick("ua")
	if err != nil {
		return err
	}
	iaAddr, ia, err := pick("ia")
	if err != nil {
		return err
	}

	d.Registry.BeginDrain("ua", uaAddr)
	d.Registry.BeginDrain("ia", iaAddr)
	_ = node.Drain(ctx, ua.Layer, ia.Layer) // a hard-phase drain shows in the reports below

	d.Registry.Deregister("ua", uaAddr)
	d.Registry.Deregister("ia", iaAddr)
	for _, addr := range []string{uaAddr, iaAddr} {
		if kerr := d.Kill(addr); kerr != nil && err == nil {
			err = kerr
		}
	}
	ua.Close()
	ia.Close()

	d.mu.Lock()
	delete(d.proxies, uaAddr)
	delete(d.proxies, iaAddr)
	d.UALayers = slices.DeleteFunc(d.UALayers, func(l *proxy.Layer) bool { return l == ua.Layer })
	d.IALayers = slices.DeleteFunc(d.IALayers, func(l *proxy.Layer) bool { return l == ia.Layer })
	d.drained = append(d.drained, ua.Layer, ia.Layer)
	d.mu.Unlock()

	if err != nil {
		return err
	}
	if !ua.Layer.DrainReport().Clean || !ia.Layer.DrainReport().Clean {
		return fmt.Errorf("cluster: pair %s/%s drained dirty", uaAddr, iaAddr)
	}
	return nil
}

// dirtyDrain reports whether any retired instance split a shuffle epoch
// on its way out — the auditor's fleet-churn violation check.
func (d *Deployment) dirtyDrain() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.drained {
		if !l.DrainReport().Clean {
			return true
		}
	}
	return false
}

// FleetOverview assembles the current fleet view: membership with
// lifecycle states, current and desired pair counts, and the recent
// scaling decisions. Nil without Spec.Fleet.
func (d *Deployment) FleetOverview() *fleet.Overview {
	if d.Registry == nil {
		return nil
	}
	return fleet.BuildOverview(d.Registry, d.Reconciler, d.Pairs())
}

// startReconciler wires the autoscaling loop: live signals from the
// deployment's own /metrics registry (UA request rate, shuffle
// occupancy), decisions actuated through the deployment itself.
func (d *Deployment) startReconciler(spec Spec) error {
	ctrl := spec.Elastic.Controller
	if ctrl == nil {
		ctrl = autoscale.DefaultController()
	}
	src := autoscale.NewSignalSource(autoscale.SignalSourceConfig{
		Snapshot:    d.Metrics.Snapshot,
		ShuffleSize: spec.Shuffle,
	})
	var logf func(string, ...any)
	if spec.Logger != nil {
		lg := spec.Logger.With("node", "fleet")
		logf = func(format string, args ...any) { lg.Info(fmt.Sprintf(format, args...)) }
	}
	rec, err := fleet.NewReconciler(fleet.ReconcilerConfig{
		Controller: ctrl,
		Signals:    func() autoscale.Signals { return src.Sample(time.Now()) },
		Driver:     d,
		Registry:   d.Registry,
		// Idle admission waits out one flush interval: if no epoch
		// boundary fired in that long, no epoch is filling anywhere.
		AdmitIdleAfter: spec.ShuffleTimeout,
		Logger:         logf,
	})
	if err != nil {
		return err
	}
	d.Reconciler = rec
	if spec.Elastic.Interval > 0 {
		d.stopReconcile = rec.Run(spec.Elastic.Interval)
	}
	return nil
}

var _ fleet.Driver = (*Deployment)(nil)
