// Command pprox-ops is the operator's tool for a PProx fleet. It runs
// the fleet telemetry collector, renders the collector's fleet view, and
// scrapes the nodes' own SLO reports.
//
// The collector: every PProx node pushes one epoch-granular snapshot per
// shuffle epoch (over hopwire frames, or HTTP POST /telemetry), and
// pprox-ops aggregates them into a fleet view — cross-node per-stage
// latency quantiles, fleet goodput, the worst-epoch anonymity watermark,
// the SLO/audit state matrix, and build-SHA skew — served as JSON on
// GET /fleet.
//
// The collector sits OUTSIDE the trust boundary: a snapshot carries
// only what the node's public /metrics endpoint already exposes, with
// no wall-clock per-record timestamps and no request identity, so a
// compromised collector learns nothing a /metrics scraper could not.
//
// Modes:
//
//	pprox-ops -listen :9090                    # serve /fleet + /telemetry
//	pprox-ops top -addr localhost:9090         # live terminal fleet view
//	pprox-ops top -once -addr localhost:9090   # one frame, then the exit status
//	pprox-ops audit -targets http://ua-0:8081,http://ia-0:8082
//
// audit reads /privacy, /metrics and (when served) /perf from every
// listed node and renders its report: privacy-SLO state, effective
// anonymity set, worst-epoch watermark, burn rates, breached layers,
// shuffler sheds, the recommendation cache, and the per-stage
// latency-SLO assessment.
//
// top -once and audit are the cron/CI gate: they exit 3 when any node
// reports its privacy or perf SLO violated — for top, a stale node's
// last-known verdict counts — and 1 when a scrape fails.
package main

import (
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
	"syscall"
	"time"

	"pprox/internal/audit"
	"pprox/internal/fleet"
	"pprox/internal/hopwire"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/perfslo"
	"pprox/internal/telemetry"
)

// exitViolated is the exit status of top -once and audit when any node
// reports an SLO violated.
const exitViolated = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "top":
			os.Exit(runTop(os.Args[2:], os.Stdout))
		case "audit":
			os.Exit(runAudit(os.Args[2:], os.Stdout))
		}
	}

	listen := flag.String("listen", ":9090", "listen address")
	retention := flag.Int("retention", telemetry.DefaultRetention, "snapshots retained per node")
	staleAfter := flag.Duration("stale-after", 0, "fixed staleness threshold (0 = adaptive: two observed epoch gaps)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address, e.g. localhost:6061 (off when empty)")
	hostFleet := flag.Bool("fleet", false, "host the fleet route registry: pprox-proxy -fleet instances register/heartbeat/drain here, and the /fleet rollup carries live membership (DESIGN.md §4j)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-ops", obslog.ParseLevel(*logLevel))
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

// runTop renders a live terminal fleet view from a running collector
// and returns the process exit status. With -once it renders one frame
// and returns exitViolated when any node's SLO reads violated.
func runTop(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9090", "collector address")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing); exit 3 when any node's privacy or perf SLO reads violated")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	httpClient := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	for {
		report, err := fetchFleet(httpClient, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pprox-ops top:", err)
			return 1
		}
		if !*once {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderFleet(stdout, report)
		if *once {
			if fleetViolated(report) {
				return exitViolated
			}
			return 0
		}
		time.Sleep(*interval)
	}
}

func fetchFleet(httpClient *http.Client, base string) (telemetry.FleetReport, error) {
	var report telemetry.FleetReport
	body, err := fetch(httpClient, base+telemetry.FleetPath)
	if err != nil {
		return report, err
	}
	return report, json.Unmarshal(body, &report)
}

// fleetViolated reports whether any node's privacy or perf SLO reads
// violated. A stale node counts with its last-known verdict: silence is
// no evidence that it recovered.
func fleetViolated(r telemetry.FleetReport) bool {
	for _, n := range r.Nodes {
		if n.AuditState == audit.StateViolated.String() || n.PerfState == perfslo.StateViolated.String() {
			return true
		}
	}
	return false
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

// runAudit scrapes every -targets node, renders its report and returns
// the process exit status: exitViolated when any node reports either SLO
// violated.
func runAudit(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated node base URLs to scrape (e.g. http://ua-0:8081,http://ia-0:8082)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	out := fs.String("out", "", "write every node's /privacy report (JSON) to this file")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *targets == "" {
		fmt.Fprintln(os.Stderr, "usage: pprox-ops audit -targets URL[,URL...] [-timeout 5s] [-out report.json]")
		return 2
	}
	logger := obslog.New(os.Stderr, "pprox-ops", obslog.ParseLevel(*logLevel))
	violated, err := runScrape(stdout, strings.Split(*targets, ","), *timeout, *out)
	if err != nil {
		logger.Error("fatal", "error", err.Error())
		return 1
	}
	if violated {
		return exitViolated
	}
	return 0
}

// nodeView is one scraped node: its privacy report, its perf report
// when the node serves /perf, plus the audit metric families from
// /metrics.
type nodeView struct {
	Target  string
	Report  audit.Report
	Perf    *perfslo.Report
	Metrics metrics.ScrapeSet
}

// runScrape reads every target and renders the operator report to w; it
// reports whether any node's SLO is violated.
func runScrape(w io.Writer, targets []string, timeout time.Duration, out string) (violated bool, err error) {
	httpClient := &http.Client{Timeout: timeout}
	var views []nodeView
	for _, raw := range targets {
		t := strings.TrimRight(strings.TrimSpace(raw), "/")
		if t == "" {
			continue
		}
		v, err := scrapeNode(httpClient, t)
		if err != nil {
			return false, fmt.Errorf("scrape %s: %w", t, err)
		}
		views = append(views, v)
	}
	if len(views) == 0 {
		return false, fmt.Errorf("no targets")
	}
	for _, v := range views {
		renderNode(w, v)
		if v.Report.State == audit.StateViolated.String() {
			violated = true
		}
		if v.Perf != nil && v.Perf.State == perfslo.StateViolated.String() {
			violated = true
		}
	}
	if out != "" {
		reports := make(map[string]audit.Report, len(views))
		for _, v := range views {
			reports[v.Target] = v.Report
		}
		if err := writeJSON(out, reports); err != nil {
			return violated, err
		}
	}
	return violated, nil
}

func scrapeNode(httpClient *http.Client, target string) (nodeView, error) {
	v := nodeView{Target: target}
	body, err := fetch(httpClient, target+audit.PrivacyPath)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v.Report); err != nil {
		return v, fmt.Errorf("decode %s: %w", audit.PrivacyPath, err)
	}
	// /perf is optional: only nodes running the latency-SLO evaluator
	// serve it, so a failed fetch means "not enabled", not an error.
	if body, perfErr := fetch(httpClient, target+perfslo.PerfPath); perfErr == nil {
		var perf perfslo.Report
		if err := json.Unmarshal(body, &perf); err != nil {
			return v, fmt.Errorf("decode %s: %w", perfslo.PerfPath, err)
		}
		v.Perf = &perf
	}
	if body, err = fetch(httpClient, target+"/metrics"); err != nil {
		return v, err
	}
	v.Metrics = metrics.ParseExposition(string(body))
	return v, nil
}

func fetch(httpClient *http.Client, url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 32<<20))
}

// renderNode prints one node's privacy assessment. Everything shown is
// epoch-granular — the report carries nothing finer.
func renderNode(w io.Writer, v nodeView) {
	r := v.Report
	fmt.Fprintf(w, "%s\n", v.Target)
	fmt.Fprintf(w, "  privacy SLO: %s (for %ds)  target S=%d  objective %.2f%%\n",
		strings.ToUpper(r.State), r.StateSeconds, r.TargetS, r.Objective*100)
	fmt.Fprintf(w, "  effective anonymity set: %d   worst epoch ever: %d\n",
		r.EffectiveAnonymity, r.WorstEpochBatch)
	fmt.Fprintf(w, "  epochs: %d total, %d under-filled   transitions: %d violations, %d warns\n",
		r.EpochsTotal, r.UnderfilledTotal, r.Violations, r.Warns)
	if sheds, ok := sumFamily(v.Metrics, "pprox_proxy_shuffle_shed_total"); ok {
		fmt.Fprintf(w, "  shuffler sheds: %.0f  (requests released without full-epoch cover)\n", sheds)
	}
	renderCache(w, v.Metrics)
	for _, win := range r.Windows {
		state := "ok"
		if win.Burning {
			state = "BURNING"
		}
		fmt.Fprintf(w, "  window %-4s burn rate %6.2f  (%d/%d under-filled, min batch %d)  %s\n",
			win.Window, win.BurnRate, win.Underfilled, win.Epochs, win.MinBatch, state)
	}
	if len(r.Breached) > 0 {
		fmt.Fprintf(w, "  BREACHED LAYERS (keys not yet rotated): %s\n", strings.Join(r.Breached, ", "))
	}
	if len(r.DegradedChecks) > 0 {
		fmt.Fprintf(w, "  degraded: %s\n", strings.Join(r.DegradedChecks, "; "))
	}
	if len(r.KeyAges) > 0 {
		layers := make([]string, 0, len(r.KeyAges))
		for l := range r.KeyAges {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		parts := make([]string, len(layers))
		for i, l := range layers {
			parts[i] = fmt.Sprintf("%s %ds", l, r.KeyAges[l])
		}
		fmt.Fprintf(w, "  key ages: %s\n", strings.Join(parts, ", "))
	}
	for _, n := range r.Nodes {
		fmt.Fprintf(w, "  node %-6s epochs=%d under=%d worst=%d last=%d\n",
			n.Node, n.Epochs, n.Underfilled, n.WorstBatch, n.LastBatch)
	}
	renderPerf(w, v.Perf)
}

// renderPerf prints the node's per-stage latency-SLO assessment when it
// serves /perf. Exemplars are shuffle-epoch ids — the same granularity
// the privacy report above exposes, nothing finer.
func renderPerf(w io.Writer, p *perfslo.Report) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "  perf SLO: %s (for %ds)  transitions: %d violations, %d warns\n",
		strings.ToUpper(p.State), p.StateSeconds, p.Violations, p.Warns)
	for _, o := range p.Objectives {
		observed := fmt.Sprintf("%.3gms", o.ObservedSeconds*1000)
		if o.ObservedOverflow {
			observed = ">" + observed
		}
		fmt.Fprintf(w, "    %-6s %-14s p%g ≤ %.3gms  observed %s over %d obs  %s\n",
			o.Node, o.Name, o.Quantile*100, o.ThresholdSeconds*1000, observed,
			o.Observations, strings.ToUpper(o.State))
		for _, win := range o.Windows {
			state := "ok"
			if win.Burning {
				state = "BURNING"
			}
			fmt.Fprintf(w, "      window %-5s burn rate %6.2f  (%d/%d slow)  %s\n",
				win.Window, win.BurnRate, win.Slow, win.Observations, state)
		}
		if len(o.ExemplarEpochs) > 0 {
			fmt.Fprintf(w, "      breach exemplar epochs: %v (the -trace-log records of those epochs)\n", o.ExemplarEpochs)
		}
	}
}

// sumFamily totals every series of one metric family across its label
// combinations; ok reports whether the family appeared in the scrape at
// all (a registered-but-zero counter still counts as present).
func sumFamily(set metrics.ScrapeSet, fam string) (total float64, ok bool) {
	for series, v := range set {
		if name, _ := metrics.ParseSeries(series); name == fam {
			total += v
			ok = true
		}
	}
	return total, ok
}

// renderCache prints the in-enclave recommendation cache's epoch-granular
// counters when the node exports them (IA instances with -cache). The
// shuffler line above is the privacy half of the story; this is the
// efficiency half — hits, by construction, still travel in full epochs.
func renderCache(w io.Writer, set metrics.ScrapeSet) {
	hits, okH := sumFamily(set, "pprox_reccache_hits_total")
	misses, okM := sumFamily(set, "pprox_reccache_misses_total")
	if !okH && !okM {
		return
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	coalesced, _ := sumFamily(set, "pprox_reccache_coalesced_total")
	evictions, _ := sumFamily(set, "pprox_reccache_evictions_total")
	flushes, _ := sumFamily(set, "pprox_reccache_flushes_total")
	entries, _ := sumFamily(set, "pprox_reccache_entries")
	pages, _ := sumFamily(set, "pprox_reccache_epc_pages")
	fmt.Fprintf(w, "  reccache: hit rate %.1f%% (%.0f hits, %.0f misses)  coalesced %.0f  evictions %.0f  flushes %.0f  resident %.0f entries / %.0f EPC pages\n",
		rate*100, hits, misses, coalesced, evictions, flushes, entries, pages)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
