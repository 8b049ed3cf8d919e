package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"pprox/internal/metrics"
)

// FleetReport is the fleet view of two scrape rounds.
type FleetReport struct {
	// Nodes holds one row per target, in target order.
	Nodes []NodeStatus
	Up    int
	Down  int
	// Rollups aggregates the nodes that are up: a node that does not
	// answer contributes nothing, not its last-known counters.
	Rollups Rollups
}

// NodeStatus is one node's row.
type NodeStatus struct {
	Node string
	// Role is "ua", "ia", "lrs" or "stub", read from the series the node exports; empty when none tells.
	Role string
	// Down marks a node whose latest scrape failed.
	Down bool
	// Epoch is a proxy's latest released epoch number (its shuffle flush
	// count, the number its epoch records carry); 0 elsewhere.
	Epoch      uint64
	AuditState string
	PerfState  string
	GoodputRPS float64
}

// NodeStates is one node's row in the SLO/audit state matrix.
type NodeStates struct {
	Audit string
	Perf  string
}

// Rollups are the cross-node aggregates.
type Rollups struct {
	// GoodputRPS sums the UA nodes' goodput; without UA nodes, every
	// node's.
	GoodputRPS float64
	// StageQuantiles merges the per-stage latency histograms of every
	// node.
	StageQuantiles map[string]StageQuantile
	// WorstEpochBatch is the smallest positive
	// pprox_audit_worst_epoch_batch any node exports; 0 means unknown.
	WorstEpochBatch int
	// States is the per-node SLO/audit verdict matrix.
	States map[string]NodeStates
	// BuildSHAs lists the distinct git SHAs of pprox_build_info;
	// BuildSkew flags a mixed-version fleet.
	BuildSHAs []string
	BuildSkew bool
	// LRS aggregates the recommendation backends' training state. Nil
	// when no LRS node answers.
	LRS *LRSRollup
}

// LRSRollup is the fleet-wide LRS training aggregate.
type LRSRollup struct {
	// Shards sums event-log shards across LRS nodes.
	Shards int
	// TrainSeconds is the worst (longest) last full-train duration.
	TrainSeconds float64
	// EventsApplied sums events folded into models by the online
	// incremental path.
	EventsApplied uint64
}

// StageQuantile is a merged per-stage latency summary.
type StageQuantile struct {
	P50   float64
	P90   float64
	P99   float64
	Count uint64
	// Overflow flags quantiles clamped because the mass sits beyond
	// the last finite bucket bound.
	Overflow bool
}

// servedFamilies are, by role, the request-serving counters goodput is
// read from.
var servedFamilies = map[string][]string{
	"ua":   {"pprox_proxy_requests_served_total"},
	"ia":   {"pprox_proxy_requests_served_total"},
	"lrs":  {"pprox_lrs_posts_total", "pprox_lrs_queries_total"},
	"stub": {"pprox_stub_gets_total", "pprox_stub_posts_total"},
}

// node is one scrape scoped to the target's own node.
type node struct {
	name, role string
	// series keeps the series labelled with the node and the unlabelled
	// ones. In-process nodes share one registry, so each target's
	// exposition carries its neighbours' series too.
	series map[string]float64
	// sha is the git SHA of pprox_build_info; worst the positive
	// pprox_audit_worst_epoch_batch (0 when absent).
	sha   string
	worst int
}

// scope names the scrape's node and keeps its own series. The node is
// the target's host when some series is labelled with it (in-process
// nodes, addressed by name), else the one node label the exposition
// carries (a process, labelled by -node), else the host.
func scope(s Scrape) node {
	host := hostOf(s.Target)
	type parsed struct {
		series string
		name   string
		labels map[string]string
	}
	all := make([]parsed, 0, len(s.Metrics))
	names := make(map[string]bool)
	for series := range s.Metrics {
		name, labels := metrics.ParseSeries(series)
		all = append(all, parsed{series, name, labels})
		if n, ok := labels["node"]; ok {
			names[n] = true
		}
	}
	n := node{name: host, series: make(map[string]float64)}
	if !names[host] && len(names) == 1 {
		for only := range names {
			n.name = only
		}
	}
	var lrs, stub bool
	for _, p := range all {
		if own, ok := p.labels["node"]; ok && own != n.name {
			continue
		}
		v := s.Metrics[p.series]
		n.series[p.series] = v
		switch {
		case p.name == "pprox_proxy_requests_served_total" && p.labels["layer"] != "":
			n.role = strings.ToLower(p.labels["layer"])
		case p.name == "pprox_stub_gets_total":
			stub = true
		case p.name == "pprox_lrs_queries_total":
			lrs = true
		case p.name == "pprox_build_info":
			n.sha = p.labels["git_sha"]
		case p.name == "pprox_audit_worst_epoch_batch" && v > 0:
			n.worst = int(v)
		}
	}
	switch {
	case n.role == "" && stub:
		n.role = "stub"
	case n.role == "" && lrs:
		n.role = "lrs"
	}
	return n
}

// hostOf is a target's host[:port].
func hostOf(target string) string {
	if _, host, ok := strings.Cut(target, "://"); ok {
		return host
	}
	return target
}

// family sums one metric family over a node's series.
func (n node) family(fam string) (total float64) {
	for series, v := range n.series {
		if name, _, _ := strings.Cut(series, "{"); name == fam {
			total += v
		}
	}
	return total
}

func (n node) served() (total float64) {
	for _, fam := range servedFamilies[n.role] {
		total += n.family(fam)
	}
	return total
}

// View folds two scrape rounds of the same targets, taken elapsed apart
// on the operator's clock, into the fleet view. A node's goodput is its
// served counters' growth between the rounds over elapsed; prev may be
// nil, and goodput then reads 0. A node whose scrape in cur failed reads
// down, under the name prev knew it by.
func View(prev, cur []Scrape, elapsed time.Duration) FleetReport {
	before := make(map[string]node, len(prev))
	for _, s := range prev {
		if s.Err == nil {
			before[s.Target] = scope(s)
		}
	}
	report := FleetReport{Rollups: Rollups{States: make(map[string]NodeStates)}}
	var upSeries []map[string]float64
	shas := make(map[string]bool)
	var uaGoodput, allGoodput float64
	haveUA := false
	for _, s := range cur {
		was, seen := before[s.Target]
		if s.Err != nil {
			name := was.name
			if !seen {
				name = hostOf(s.Target)
			}
			report.Nodes = append(report.Nodes, NodeStatus{Node: name, Role: was.role, Down: true})
			report.Down++
			continue
		}
		n := scope(s)
		st := NodeStatus{
			Node:  n.name,
			Role:  n.role,
			Epoch: uint64(n.family("pprox_proxy_shuffle_flushes_total")),
		}
		if s.Privacy != nil {
			st.AuditState = s.Privacy.State
		}
		if s.Perf != nil {
			st.PerfState = s.Perf.State
		}
		if seen && elapsed > 0 {
			d := n.served() - was.served()
			if d < 0 {
				d = n.served() // the node restarted: its counters began again
			}
			st.GoodputRPS = math.Round(d/elapsed.Seconds()*10) / 10
		}
		report.Nodes = append(report.Nodes, st)
		report.Up++

		upSeries = append(upSeries, n.series)
		if n.role == "lrs" {
			accumulateLRS(&report.Rollups, n.series)
		}
		if st.AuditState != "" || st.PerfState != "" {
			report.Rollups.States[st.Node] = NodeStates{Audit: st.AuditState, Perf: st.PerfState}
		}
		allGoodput += st.GoodputRPS
		if n.role == "ua" {
			haveUA = true
			uaGoodput += st.GoodputRPS
		}
		if n.sha != "" {
			shas[n.sha] = true
		}
		if w := n.worst; w > 0 && (report.Rollups.WorstEpochBatch == 0 || w < report.Rollups.WorstEpochBatch) {
			report.Rollups.WorstEpochBatch = w
		}
	}

	report.Rollups.GoodputRPS = allGoodput
	if haveUA {
		report.Rollups.GoodputRPS = uaGoodput
	}
	for sha := range shas {
		report.Rollups.BuildSHAs = append(report.Rollups.BuildSHAs, sha)
	}
	slices.Sort(report.Rollups.BuildSHAs)
	report.Rollups.BuildSkew = len(report.Rollups.BuildSHAs) > 1

	merged := MergeStageHistograms(upSeries)
	if len(merged) > 0 {
		report.Rollups.StageQuantiles = make(map[string]StageQuantile, len(merged))
		for stage, m := range merged {
			var sq StageQuantile
			var o1, o2, o3 bool
			sq.P50, o1 = m.Quantile(0.50)
			sq.P90, o2 = m.Quantile(0.90)
			sq.P99, o3 = m.Quantile(0.99)
			sq.Count = m.Count()
			sq.Overflow = o1 || o2 || o3
			report.Rollups.StageQuantiles[stage] = sq
		}
	}
	return report
}

// accumulateLRS folds one LRS node's series into the LRS rollup.
func accumulateLRS(r *Rollups, series map[string]float64) {
	if r.LRS == nil {
		r.LRS = &LRSRollup{}
	}
	lrs := r.LRS
	for s, v := range series {
		name, _, _ := strings.Cut(s, "{")
		switch name {
		case "pprox_lrs_shards":
			lrs.Shards += int(v)
		case "pprox_lrs_train_seconds":
			lrs.TrainSeconds = max(lrs.TrainSeconds, v)
		case "pprox_lrs_events_applied_total":
			lrs.EventsApplied += uint64(v)
		}
	}
}

// Render prints the fleet view as pprox-ops top shows it. Everything in
// it is epoch-granular: counts, states, merged bucket bounds.
func Render(w io.Writer, r FleetReport) {
	skew := "none"
	if r.Rollups.BuildSkew {
		skew = strings.Join(r.Rollups.BuildSHAs, ",")
	}
	fmt.Fprintf(w, "fleet: %d up / %d down   goodput %.1f rps   worst epoch batch %d   build skew: %s\n\n",
		r.Up, r.Down, r.Rollups.GoodputRPS, r.Rollups.WorstEpochBatch, skew)
	fmt.Fprintf(w, "%-10s %-5s %-5s %8s %9s %-9s %s\n", "NODE", "ROLE", "STATE", "EPOCH", "RPS", "AUDIT", "PERF")
	for _, n := range r.Nodes {
		state := "up"
		if n.Down {
			state = "DOWN"
		}
		fmt.Fprintf(w, "%-10s %-5s %-5s %8d %9.1f %-9s %s\n",
			n.Node, orDash(n.Role), state, n.Epoch, n.GoodputRPS, orDash(n.AuditState), orDash(n.PerfState))
	}
	if len(r.Rollups.StageQuantiles) > 0 {
		fmt.Fprintf(w, "\nmerged stage latency (ms):\n")
		stages := make([]string, 0, len(r.Rollups.StageQuantiles))
		for s := range r.Rollups.StageQuantiles {
			stages = append(stages, s)
		}
		slices.Sort(stages)
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
