// Command pprox-ops is the fleet telemetry collector: every PProx node
// pushes one epoch-granular snapshot per shuffle epoch (over hopwire
// frames, or HTTP POST /telemetry), and pprox-ops aggregates them into
// a fleet view — cross-node per-stage latency quantiles, fleet goodput,
// the worst-epoch anonymity watermark, the SLO/audit state matrix, and
// build-SHA skew — served as JSON on GET /fleet.
//
// The collector sits OUTSIDE the trust boundary: a snapshot carries
// only what the node's public /metrics endpoint already exposes, with
// no wall-clock per-record timestamps and no request identity, so a
// compromised collector learns nothing a /metrics scraper could not.
//
// Modes:
//
//	pprox-ops -listen :9090                 # serve /fleet + /telemetry
//	pprox-ops top -addr localhost:9090      # live terminal fleet view
//	pprox-ops -smoke -out fleet.json        # in-process cluster e2e
//
// Smoke mode boots the full in-process cluster with the telemetry
// plane, runs a workload, asserts every node reports fresh with sane
// rollups, kills one node, asserts the collector marks it stale, and
// writes the final /fleet report to -out for artifact upload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pprox/internal/audit"
	"pprox/internal/autoscale"
	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/fleet"
	"pprox/internal/hopwire"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := runTop(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pprox-ops top:", err)
			os.Exit(1)
		}
		return
	}

	listen := flag.String("listen", ":9090", "listen address")
	retention := flag.Int("retention", telemetry.DefaultRetention, "snapshots retained per node")
	staleAfter := flag.Duration("stale-after", 0, "fixed staleness threshold (0 = adaptive: two observed epoch gaps)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address, e.g. localhost:6061 (off when empty)")
	hostFleet := flag.Bool("fleet", false, "host the fleet route registry: pprox-proxy -fleet instances register/heartbeat/drain here, and the /fleet rollup carries live membership (DESIGN.md §4j)")
	smoke := flag.Bool("smoke", false, "boot an in-process cluster with the telemetry plane and assert the fleet view tracks it")
	scaleSmoke := flag.Bool("scale-smoke", false, "boot an in-process ELASTIC cluster, ramp load up (pair added) then down (pair drained at an epoch boundary), and assert the audit stays ok with goodput recovered")
	out := flag.String("out", "", "smoke modes: write the final /fleet report (JSON) to this file")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-ops", obslog.ParseLevel(*logLevel))
	switch {
	case *smoke:
		if err := runSmoke(*out, logger); err != nil {
			logger.Error("smoke test failed", "error", err.Error())
			os.Exit(1)
		}
		logger.Info("smoke test passed")
		return
	case *scaleSmoke:
		if err := runScaleSmoke(*out, logger); err != nil {
			logger.Error("scale smoke test failed", "error", err.Error())
			os.Exit(1)
		}
		logger.Info("scale smoke test passed")
		return
	}
	if err := runServe(*listen, *retention, *staleAfter, *debugAddr, *hostFleet, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func runServe(listen string, retention int, staleAfter time.Duration, debugAddr string, hostFleet bool, logger *slog.Logger) error {
	ccfg := telemetry.CollectorConfig{
		Retention:  retention,
		StaleAfter: staleAfter,
		Logger:     logger,
	}
	var freg *fleet.Registry
	if hostFleet {
		// Agents heartbeat every 2s; five missed beats means the
		// instance is gone and staleness pruning collects the entry.
		freg = fleet.NewRegistry(fleet.Config{StaleAfter: 10 * time.Second})
		reg := freg
		ccfg.Overview = func() *fleet.Overview {
			pairs := reg.Count("ua", fleet.StatePending) + reg.Count("ua", fleet.StateActive)
			return fleet.BuildOverview(reg, nil, pairs)
		}
	}
	col := telemetry.NewCollector(ccfg)
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntimeMetrics(reg)
	col.RegisterMetrics(reg)
	routes := col.Routes()
	if freg != nil {
		freg.RegisterMetrics(reg)
		for p, h := range (&fleet.Server{Registry: freg}).Routes() {
			routes[p] = h
		}
		// Housekeeping: remote proxies cannot signal shuffle-epoch
		// boundaries to an out-of-process registry, so pending endpoints
		// are admitted on the idle path, and dead ones pruned.
		stopHousekeeping := make(chan struct{})
		defer close(stopHousekeeping)
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-stopHousekeeping:
					return
				case <-t.C:
					freg.Prune()
					freg.AdmitIdle(5 * time.Second)
				}
			}
		}()
		logger.Info("fleet registry hosted", "stale_after", "10s")
	}
	handler := metrics.MuxRoutes(reg, col.Health, routes, http.NotFoundHandler())

	stopDebug := func() error { return nil }
	if debugAddr != "" {
		var err error
		stopDebug, err = metrics.ServeDebug(debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		logger.Info("pprof serving", "addr", debugAddr)
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// Dual-protocol listener: nodes push FrameTelemetry frames on
	// persistent connections; operators and frame-illiterate nodes use
	// plain HTTP on the same port.
	shutdown := hopwire.ServeHTTPAndFrames(l, handler)
	logger.Info("serving", "listen", l.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}

// runTop renders a live terminal fleet view from a running collector.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9090", "collector address")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	httpClient := &http.Client{Timeout: 5 * time.Second}
	for {
		report, err := fetchFleet(httpClient, "http://"+strings.TrimPrefix(*addr, "http://"))
		if err != nil {
			return err
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderFleet(os.Stdout, report)
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

func fetchFleet(httpClient *http.Client, base string) (telemetry.FleetReport, error) {
	var report telemetry.FleetReport
	resp, err := httpClient.Get(base + telemetry.FleetPath)
	if err != nil {
		return report, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return report, fmt.Errorf("%s: status %s", base+telemetry.FleetPath, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return report, err
	}
	return report, json.Unmarshal(body, &report)
}

// renderFleet prints the fleet view. Everything shown is epoch-granular;
// ages are collector-local arrival staleness, not node clocks.
func renderFleet(w io.Writer, r telemetry.FleetReport) {
	skew := "none"
	if r.Rollups.BuildSkew {
		skew = strings.Join(r.Rollups.BuildSHAs, ",")
	}
	fmt.Fprintf(w, "fleet: %d fresh / %d stale   goodput %.1f rps   worst epoch batch %d   build skew: %s\n\n",
		r.Fresh, r.Stale, r.Rollups.GoodputRPS, r.Rollups.WorstEpochBatch, skew)
	fmt.Fprintf(w, "%-10s %-5s %-6s %7s %8s %8s %9s %-9s %-9s %s\n",
		"NODE", "ROLE", "STATE", "AGE", "EPOCH", "SEQ", "RPS", "AUDIT", "PERF", "PUSHES(err)")
	for _, n := range r.Nodes {
		state := "fresh"
		if n.Stale {
			state = "STALE"
		}
		fmt.Fprintf(w, "%-10s %-5s %-6s %6.1fs %8d %8d %9.1f %-9s %-9s %d(%d)\n",
			n.Node, n.Role, state, n.AgeSeconds, n.Epoch, n.Seq, n.GoodputRPS,
			orDash(n.AuditState), orDash(n.PerfState), n.Transport.Pushes, n.Transport.Errors)
	}
	if fv := r.Rollups.Fleet; fv != nil {
		fmt.Fprintf(w, "\nelastic fleet: %d pairs current / %d desired\n", fv.CurrentPairs, fv.DesiredPairs)
		for _, ep := range fv.Endpoints {
			fmt.Fprintf(w, "  %-4s %-12s %s\n", ep.Service, ep.Addr, strings.ToUpper(ep.State))
		}
		if n := len(fv.Decisions); n > 0 {
			fmt.Fprintf(w, "  recent scaling decisions:\n")
			start := n - 3
			if start < 0 {
				start = 0
			}
			for _, dec := range fv.Decisions[start:] {
				line := fmt.Sprintf("    #%d %-10s %d→%d  rps %.1f  occ %.2f", dec.Seq, dec.Action, dec.Current, dec.Desired, dec.RPS, dec.Occupancy)
				if dec.Err != "" {
					line += "  err: " + dec.Err
				}
				fmt.Fprintln(w, line)
			}
		}
	}
	if len(r.Rollups.StageQuantiles) > 0 {
		fmt.Fprintf(w, "\nmerged stage latency (ms):\n")
		stages := make([]string, 0, len(r.Rollups.StageQuantiles))
		for s := range r.Rollups.StageQuantiles {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			q := r.Rollups.StageQuantiles[s]
			over := ""
			if q.Overflow {
				over = "  (beyond last bucket)"
			}
			fmt.Fprintf(w, "  %-14s p50 %8.3f  p90 %8.3f  p99 %8.3f  over %d obs%s\n",
				s, q.P50*1000, q.P90*1000, q.P99*1000, q.Count, over)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Smoke-mode shape: a full hopwire cluster with the telemetry plane,
// driven through enough full batches that every node reports multiple
// epochs, then one node killed to prove staleness detection.
const (
	smokeShuffle = 8
	smokeBatches = 6
)

func runSmoke(out string, logger *slog.Logger) error {
	spec := cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        smokeShuffle,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		LRSFrontends:   1,
		Hopwire:        true,
		OpsAddr:        "ops-0",
		Audit:          &audit.Config{},
		PerfSLO:        &perfslo.Config{},
		Logger:         logger,
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		return err
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	runBatches := func(batches int) {
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			for i := 0; i < smokeShuffle; i++ {
				u := fmt.Sprintf("smoke-user-%02d", i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					// Failures are tolerated: after the LRS kill below,
					// requests still fill (and flush) the UA shuffler.
					cl.Get(ctx, u)
				}()
			}
			wg.Wait()
		}
	}

	runBatches(smokeBatches)
	// Let the last epoch leave on the flush timer and reach the collector.
	time.Sleep(300 * time.Millisecond)

	httpClient := d.HTTPClient(5 * time.Second)
	report, err := fetchFleet(httpClient, "http://ops-0")
	if err != nil {
		return err
	}
	renderFleet(os.Stdout, report)

	wantNodes := []string{"ia-0", "lrs-0", "ua-0"}
	if len(report.Nodes) != len(wantNodes) {
		return fmt.Errorf("fleet reports %d nodes, want %d", len(report.Nodes), len(wantNodes))
	}
	for i, n := range report.Nodes {
		if n.Node != wantNodes[i] {
			return fmt.Errorf("fleet node[%d] = %q, want %q", i, n.Node, wantNodes[i])
		}
		if n.Stale {
			return fmt.Errorf("node %s stale while pushing", n.Node)
		}
		if n.Seq == 0 || n.Transport.Pushes == 0 {
			return fmt.Errorf("node %s reported no pushes", n.Node)
		}
	}
	if report.Rollups.GoodputRPS <= 0 {
		return fmt.Errorf("fleet goodput %.1f rps, want > 0", report.Rollups.GoodputRPS)
	}
	if _, ok := report.Rollups.StageQuantiles["serve"]; !ok {
		return fmt.Errorf("fleet rollup lacks merged serve-stage quantiles")
	}
	if w := report.Rollups.WorstEpochBatch; w <= 0 || w > smokeShuffle {
		return fmt.Errorf("worst epoch batch %d, want within (0, %d]", w, smokeShuffle)
	}
	if report.Rollups.BuildSkew {
		return fmt.Errorf("build skew flagged in a single-binary fleet: %v", report.Rollups.BuildSHAs)
	}

	// Kill the LRS front end: its feed must go silent and the collector
	// must mark it stale while the proxies keep reporting.
	if err := d.Kill("lrs-0"); err != nil {
		return err
	}
	logger.Info("killed lrs-0")
	runBatches(smokeBatches)
	time.Sleep(500 * time.Millisecond)

	report, err = fetchFleet(httpClient, "http://ops-0")
	if err != nil {
		return err
	}
	renderFleet(os.Stdout, report)
	if out != "" {
		if err := writeJSON(out, report); err != nil {
			return err
		}
		logger.Info("fleet report written", "path", out)
	}
	var lrsStale bool
	for _, n := range report.Nodes {
		switch n.Node {
		case "lrs-0":
			lrsStale = n.Stale
		case "ua-0", "ia-0":
			if n.Stale {
				return fmt.Errorf("node %s went stale while still pushing", n.Node)
			}
		}
	}
	if !lrsStale {
		return fmt.Errorf("lrs-0 not marked stale after kill")
	}
	if report.Stale != 1 || report.Fresh != 2 {
		return fmt.Errorf("fleet counts fresh=%d stale=%d, want 2/1", report.Fresh, report.Stale)
	}
	return nil
}

// Scale-smoke shape: an elastic cluster driven through a load ramp that
// forces one scale-up and one scale-down, with the privacy audit
// asserted ok at every phase — the CI gate for DESIGN.md §4j.
const scaleShuffle = 8

func runScaleSmoke(out string, logger *slog.Logger) error {
	// A vanishingly small pair capacity makes any observed traffic
	// demand Max pairs and an idle window demand Min, so the ramp below
	// forces exactly one scale-up and one scale-down regardless of
	// wall-clock jitter. Interval 0: this harness ticks the reconciler
	// itself so every assertion lands on a known loop state.
	ctrl := &autoscale.Controller{
		PairCapacityRPS:   0.001,
		TargetUtilization: 1,
		Min:               1,
		Max:               2,
		Hysteresis:        1,
	}
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:      true,
		UA:                1,
		IA:                1,
		Encryption:        true,
		ItemPseudonyms:    true,
		Shuffle:           scaleShuffle,
		ShuffleTimeout:    300 * time.Millisecond,
		UseStub:           true,
		LRSFrontends:      1,
		OpsAddr:           "ops-0",
		Audit:             &audit.Config{},
		Elastic:           &cluster.ElasticSpec{Controller: ctrl},
		TelemetryInterval: 50 * time.Millisecond,
		Logger:            logger,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	rec := d.Reconciler

	// Keep-alives off so every request dials: the balancer's per-dial
	// round robin then splits each two-pair round exactly S/S across
	// the UAs and every shuffler flushes on occupancy, never the timer.
	httpClient := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext:       d.Balancer.DialContext,
			DisableKeepAlives: true,
		},
	}
	cl := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), httpClient, d.Entry)
	round := func(size int) error {
		var wg sync.WaitGroup
		var mu sync.Mutex
		failed := 0
		for i := 0; i < size; i++ {
			u := fmt.Sprintf("scale-user-%02d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := cl.Get(ctx, u); err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if failed != 0 {
			return fmt.Errorf("%d of %d requests failed", failed, size)
		}
		return nil
	}
	auditOK := func(phase string) error {
		if st := d.Auditor.State(); st != audit.StateOK {
			return fmt.Errorf("audit state %s during %q, want ok: %+v", st, phase, d.Auditor.Report())
		}
		return nil
	}

	// Phase 1 — baseline on one pair. The first tick has no signal
	// window yet and must hold.
	if err := round(scaleShuffle); err != nil {
		return err
	}
	if dec := rec.Tick(); dec.Action != fleet.ActionHold {
		return fmt.Errorf("first tick = %+v, want hold", dec)
	}
	if err := auditOK("baseline"); err != nil {
		return err
	}

	// Phase 2 — ramp up: the observed rate demands a second pair.
	if err := round(scaleShuffle); err != nil {
		return err
	}
	dec := rec.Tick()
	if dec.Action != fleet.ActionUp || dec.Desired != 2 {
		return fmt.Errorf("tick under load = %+v, want scale-up to 2", dec)
	}
	logger.Info("scaled up", "pairs", d.Pairs())
	// The pending pair is admitted at the next epoch boundary.
	if err := round(scaleShuffle); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Registry.Count("ua", fleet.StateActive) != 2 ||
		d.Registry.Count("ia", fleet.StateActive) != 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("pair never admitted: %+v", d.Registry.Membership())
		}
		time.Sleep(5 * time.Millisecond)
	}
	logger.Info("pair admitted at epoch boundary")

	// Phase 3 — churned steady state across both pairs.
	for i := 0; i < 2; i++ {
		if err := round(2 * scaleShuffle); err != nil {
			return err
		}
	}
	rec.Tick() // consume the loaded window (desired == current: hold)
	if err := auditOK("two-pair traffic"); err != nil {
		return err
	}

	// Phase 4 — ramp down: an idle window drains the extra pair at an
	// epoch boundary, final epoch whole.
	time.Sleep(400 * time.Millisecond)
	dec = rec.Tick()
	if dec.Action != fleet.ActionDown || dec.Desired != 1 {
		return fmt.Errorf("idle tick = %+v, want scale-down to 1", dec)
	}
	if d.Pairs() != 1 {
		return fmt.Errorf("pairs after scale-down = %d, want 1", d.Pairs())
	}
	if st := d.Registry.Stats(); st.Drains != 2 || st.Deregistrations != 2 {
		return fmt.Errorf("registry stats after drain = %+v, want 2 drains and 2 deregistrations", st)
	}
	if err := auditOK("after drain"); err != nil {
		return err
	}
	logger.Info("scaled down", "pairs", d.Pairs())

	// Phase 5 — goodput recovery on the remaining pair.
	for i := 0; i < 2; i++ {
		if err := round(scaleShuffle); err != nil {
			return err
		}
	}
	if err := auditOK("post-drain traffic"); err != nil {
		return err
	}
	time.Sleep(400 * time.Millisecond) // final epochs reach the collector

	report, err := fetchFleet(d.HTTPClient(5*time.Second), "http://ops-0")
	if err != nil {
		return err
	}
	renderFleet(os.Stdout, report)
	if out != "" {
		if err := writeJSON(out, report); err != nil {
			return err
		}
		logger.Info("fleet report written", "path", out)
	}
	if report.Rollups.GoodputRPS <= 0 {
		return fmt.Errorf("fleet goodput %.1f rps after scale-down, want > 0", report.Rollups.GoodputRPS)
	}
	fv := report.Rollups.Fleet
	if fv == nil {
		return fmt.Errorf("/fleet rollup carries no fleet overview")
	}
	if fv.CurrentPairs != 1 || fv.DesiredPairs != 1 {
		return fmt.Errorf("fleet overview %d/%d pairs, want 1/1", fv.CurrentPairs, fv.DesiredPairs)
	}
	var up, down bool
	for _, dd := range fv.Decisions {
		up = up || dd.Action == fleet.ActionUp
		down = down || dd.Action == fleet.ActionDown
	}
	if !up || !down {
		return fmt.Errorf("decision ring %+v missing the scale-up or scale-down", fv.Decisions)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
