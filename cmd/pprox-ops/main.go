// Command pprox-ops is the operator's tool for a PProx fleet. It reads
// the nodes' own endpoints — /metrics everywhere, /privacy and /perf
// where the SLO engines run.
//
// Modes:
//
//	pprox-ops top -targets http://ua-0:8081,http://ia-0:8082,http://lrs-0:8080
//	pprox-ops top -once -targets …             # two scrapes, one frame, then the exit status
//	pprox-ops audit -targets http://ua-0:8081,http://ia-0:8082
//
// top scrapes every target each -interval and renders the fleet view:
// one row per node (DOWN when it does not answer), goodput from the
// served counters' growth between two scrapes, cross-node per-stage
// latency quantiles, the worst-epoch anonymity watermark, the SLO/audit
// state matrix, the LRS rollup and build-SHA skew.
//
// audit renders each node's privacy report (it must serve /privacy) and,
// where served, its perf report: privacy-SLO state, effective anonymity
// set, worst-epoch watermark, burn rates, breached layers, shuffler
// sheds, and the per-stage latency-SLO assessment.
//
// top -once and audit are the cron/CI gate: they exit 3 when any node
// reports its privacy or perf SLO violated and 1 when a scrape fails —
// including a /perf or /privacy that answers anything but 200 or 404.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/perfslo"
	"pprox/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "top":
			os.Exit(runTop(os.Args[2:], os.Stdout))
		case "audit":
			os.Exit(runAudit(os.Args[2:], os.Stdout))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: pprox-ops top|audit -targets URL[,URL...]")
	os.Exit(2)
}

// splitTargets parses a -targets list.
func splitTargets(list string) []string {
	var out []string
	for _, t := range strings.Split(list, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// runTop renders the live fleet view from scrapes of the -targets nodes
// and returns the process exit status. With -once it takes two scrapes
// one -interval apart, renders one frame and returns the gate's status.
func runTop(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated node base URLs to scrape (e.g. http://ua-0:8081,http://ia-0:8082,http://lrs-0:8080)")
	interval := fs.Duration("interval", time.Second, "time between scrapes; goodput is the served counters' growth over it")
	once := fs.Bool("once", false, "take two scrapes -interval apart, render one frame (no screen clearing) and exit: 3 when any node's privacy or perf SLO reads violated, 1 when a scrape fails")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	list := splitTargets(*targets)
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pprox-ops top -targets URL[,URL...] [-interval 1s] [-once]")
		return 2
	}
	httpClient := &http.Client{Timeout: 5 * time.Second}
	prev, at := telemetry.ScrapeAll(httpClient, list), time.Now()
	for {
		time.Sleep(*interval)
		cur, now := telemetry.ScrapeAll(httpClient, list), time.Now()
		view := telemetry.View(prev, cur, now.Sub(at))
		if *once {
			telemetry.Render(stdout, view)
			for _, s := range append(prev, cur...) {
				if s.Err != nil {
					fmt.Fprintln(os.Stderr, "pprox-ops top: scrape:", s.Err)
				}
			}
			return telemetry.Gate(prev, cur)
		}
		fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		telemetry.Render(stdout, view)
		prev, at = cur, now
	}
}

// runAudit scrapes every -targets node, renders its report and returns
// the process exit status: 3 when any node reports either SLO violated,
// 1 when a scrape fails or a node serves no /privacy.
func runAudit(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	targets := fs.String("targets", "", "comma-separated node base URLs to scrape (e.g. http://ua-0:8081,http://ia-0:8082)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	out := fs.String("out", "", "write every node's /privacy report (JSON) to this file")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	list := splitTargets(*targets)
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pprox-ops audit -targets URL[,URL...] [-timeout 5s] [-out report.json]")
		return 2
	}
	logger := obslog.New(os.Stderr, "pprox-ops", obslog.ParseLevel(*logLevel))
	nodes := telemetry.ScrapeAll(&http.Client{Timeout: *timeout}, list)
	for _, s := range nodes {
		err := s.Err
		if err == nil && s.Privacy == nil {
			err = fmt.Errorf("%s serves no %s", s.Target, audit.PrivacyPath)
		}
		if err != nil {
			logger.Error("fatal", "error", err.Error())
			return telemetry.ExitFailed
		}
	}
	for _, s := range nodes {
		renderNode(stdout, s)
	}
	if *out != "" {
		reports := make(map[string]audit.Report, len(nodes))
		for _, s := range nodes {
			reports[s.Target] = *s.Privacy
		}
		if err := writeJSON(*out, reports); err != nil {
			logger.Error("fatal", "error", err.Error())
			return telemetry.ExitFailed
		}
	}
	return telemetry.Gate(nodes)
}

// renderNode prints one node's privacy assessment. Everything shown is
// epoch-granular — the report carries nothing finer.
func renderNode(w io.Writer, v telemetry.Scrape) {
	r := *v.Privacy
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

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
