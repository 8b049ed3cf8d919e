// Command pprox-bench regenerates every table and figure of the PProx
// paper's evaluation (§8):
//
//	pprox-bench table2          # micro-benchmark configurations (Table 2)
//	pprox-bench table3          # macro-benchmark configurations (Table 3)
//	pprox-bench fig6            # privacy-feature latency breakdown
//	pprox-bench fig7            # impact of shuffling
//	pprox-bench fig8            # proxy horizontal scaling
//	pprox-bench fig9            # Harness LRS baseline
//	pprox-bench fig10           # full integrated system
//	pprox-bench shuffle         # §6.2 adversary linking probability
//	pprox-bench elastic         # §5 extension: fixed fleet vs autoscaler
//	pprox-bench all             # everything above
//
// Figures are produced by the deterministic cluster simulator (see
// DESIGN.md §1 for the testbed substitution); the shuffle experiment
// drives the real proxy.Shuffler. Measurements of the real request path
// on this host are the repository benchmark's job (`go run ./benchmark`,
// see benchmark/README.md and BENCHMARK.json).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pprox/internal/obslog"
	"pprox/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "shorter simulations (smoke-test quality)")
	duration := flag.Duration("duration", 0, "override virtual injection window per point")
	reps := flag.Int("reps", 0, "override repetitions per point")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV into this directory")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	opts := sim.DefaultRunOptions()
	if *quick {
		opts = sim.QuickRunOptions()
	}
	if *duration > 0 {
		opts.Duration = *duration
		if opts.Trim > *duration/4 {
			opts.Trim = *duration / 10
		}
	}
	if *reps > 0 {
		opts.Repetitions = *reps
	}

	if err := run(flag.Arg(0), opts, *csvDir); err != nil {
		obslog.New(os.Stderr, "pprox-bench", nil).Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pprox-bench [-quick] [-duration D] [-reps N] [-csv DIR] <experiment>

experiments:
  table2 table3 fig6 fig7 fig8 fig9 fig10 shuffle elastic all
`)
	flag.PrintDefaults()
}

// figures are the simulated series of §8, in the paper's order.
var figures = []struct {
	name, title string
	rows        func(sim.RunOptions) []sim.Row
}{
	{"fig6", "Figure 6 — impact of privacy features (stub LRS)", sim.Figure6},
	{"fig7", "Figure 7 — impact of shuffling (stub LRS)", sim.Figure7},
	{"fig8", "Figure 8 — proxy service scaling (stub LRS, S=10)", sim.Figure8},
	{"fig9", "Figure 9 — Harness LRS baseline", sim.Figure9},
	{"fig10", "Figure 10 — PProx + Harness integrated", sim.Figure10},
}

// all is what `pprox-bench all` runs, in order.
var all = []string{"table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "shuffle", "elastic"}

// run executes one experiment. csvDir, when non-empty, receives one CSV
// file per figure; a failed write is an error like any other.
func run(what string, opts sim.RunOptions, csvDir string) error {
	switch what {
	case "table2":
		printTable2()
	case "table3":
		printTable3()
	case "shuffle":
		return runShuffleExperiment()
	case "elastic":
		printElastic(opts)
	case "all":
		for _, step := range all {
			if err := run(step, opts, csvDir); err != nil {
				return err
			}
		}
	default:
		for _, f := range figures {
			if f.name == what {
				return printFigure(f.title, f.rows(opts), csvDir)
			}
		}
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

// printElastic runs the §5 elastic-scaling extension experiment: a fixed
// 4-pair fleet vs the scaling controller (sim.Controller) over a diurnal
// load trace.
func printElastic(opts sim.RunOptions) {
	fmt.Println("\n=== elastic scaling (§5 extension) — fixed 4-pair fleet vs controller ===")
	fixed, elastic := sim.RunElastic(4, sim.ElasticTrace(), opts)
	for _, res := range []sim.ElasticResult{fixed, elastic} {
		fmt.Printf("-- %s policy (cost %.0f pair·s, worst median %v) --\n",
			res.Policy, res.PairSeconds, res.WorstMedian().Round(time.Millisecond))
		for _, seg := range res.Segments {
			fmt.Printf("%5d RPS × %d pairs  %s\n", seg.RPS, seg.Pairs, seg.Candle)
		}
	}
}

func printFigure(title string, rows []sim.Row, csvDir string) error {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("%-6s %5s  %s\n", "config", "RPS", "round-trip latency (box = P25/median/P75, whiskers = 1.5·IQR)")
	last := ""
	for _, r := range rows {
		if r.Config != last {
			if last != "" {
				fmt.Println()
			}
			last = r.Config
		}
		fmt.Printf("%-6s %5d  %s\n", r.Config, r.RPS, r.Candle)
	}
	if csvDir == "" || len(rows) == 0 {
		return nil
	}
	path, err := writeCSV(csvDir, rows)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	fmt.Printf("(csv written to %s)\n", path)
	return nil
}

// writeCSV emits the rows as fig<N>.csv with millisecond columns matching
// the candlestick definition of footnote 7, and returns the file's path.
// The file counts as written only once the rows are flushed and the file
// is closed without error.
func writeCSV(dir string, rows []sim.Row) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "fig"+rows[0].Figure+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := csv.NewWriter(f)
	if err := w.Write([]string{"config", "rps", "n", "whisker_low_ms", "p25_ms", "median_ms", "p75_ms", "whisker_high_ms", "max_ms"}); err != nil {
		return "", err
	}
	msCol := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	for _, r := range rows {
		c := r.Candle
		rec := []string{
			r.Config,
			strconv.Itoa(r.RPS),
			strconv.Itoa(c.N),
			msCol(c.WLow), msCol(c.P25), msCol(c.Median), msCol(c.P75), msCol(c.WHigh), msCol(c.Max),
		}
		if err := w.Write(rec); err != nil {
			return "", err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	return path, f.Close()
}
