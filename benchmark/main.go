// Command benchmark is the repository's benchmark: four seeded open-loop
// workloads against the shipped raw configuration of the private path,
// each reporting end-to-end metrics (untraced) or per-layer metrics and a
// span trace (-trace 1). README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repository root lists them.
//
//	go run ./benchmark -workload stub_get_burst -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -all -out report.json
//	go run ./benchmark -repeat 10
//
// The last line of a single run's output is one JSON object: correct,
// attempted, failed and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// pinnedCPU is the processor the process is bound to (−1: not bound).
var pinnedCPU = -1

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see README.md); empty with -all or -repeat means every workload")
		seed     = flag.Int64("seed", 2021, "seed of the request schedule and the dataset")
		seconds  = flag.Int("seconds", 15, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		out      = flag.String("out", "", "write the full report (provenance, metrics, sample counts, spans) to this file")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, and print one table")
		repeat   = flag.Int("repeat", 0, "run N untraced sets with seeds seed..seed+N-1 and print each metric's median, quartiles and spread against its bound")
		baseline = flag.String("baseline", "", "with -repeat: an earlier -repeat -out file whose medians this set must agree with")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	pinnedCPU = pinToOneCPU()

	workloads := Workloads
	if *name != "" {
		w, err := FindWorkload(*name)
		if err != nil {
			fatal(err)
		}
		workloads = []Workload{w}
	}
	switch {
	case *repeat > 0:
		os.Exit(runRepeat(workloads, *seed, *seconds, *repeat, *baseline, *out))
	case *all:
		os.Exit(runAll(workloads, *seed, *seconds, *out))
	case *name == "":
		fatal(fmt.Errorf("one of -workload, -all or -repeat is required"))
	}

	tmp, cleanup, err := tmpDir()
	if err != nil {
		fatal(err)
	}
	rep, err := Run(Config{Workload: workloads[0], Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Tmp: tmp})
	cleanup()
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print renders the report for a reader: provenance, every metric by name
// with its unit and sample count, the self-time budget of a traced run,
// and whatever invariant broke.
func (r *Report) print(w *os.File) {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s  seed %d  window %ds  trace %v  (%s)\n", p.Workload, p.Seed, p.Seconds, p.Trace, p.OpenLoop)
	fmt.Fprintf(w, "commit %s dirty=%v  %s  nproc %d  GOMAXPROCS %d  bound to CPU %d\n", p.GitSHA, p.Dirty, p.GoVersion, p.NumCPU, p.MaxProcs, p.PinnedCPU)
	names := make([]string, 0, len(r.Result.Metrics))
	for name := range r.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Result.Metrics[name]
		note := ""
		if n, ok := r.Samples[name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		if q, ok := r.Percentiles[name]; ok {
			note += fmt.Sprintf("  (read at p%g: too few samples beyond)", q*100)
		}
		if raw, ok := r.AsMeasured[name]; ok {
			note += fmt.Sprintf("  (as measured %.4f, one reference operation %.0f us)", raw, r.RefOpUs[name])
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-5s%s\n", name, m.Value, m.Unit, note)
	}
	if b := r.Budget; b != nil && b.Calls > 0 {
		fmt.Fprintf(w, "self-time budget, mean ms per request over %d traced requests:\n", b.Calls)
		fmt.Fprintf(w, "  client %.3f + UA %.3f + IA %.3f + LRS %.3f = %.3f of %.3f end to end; edge (loopback + HTTP) %.3f\n",
			b.Client, b.UA, b.IA, b.LRS, b.Client+b.UA+b.IA+b.LRS, b.Call, b.Edge)
	}
	fmt.Fprintf(w, "requests: %d attempted, %d failed\n", r.Result.Attempted, r.Result.Failed)
	for _, msg := range r.Broken {
		fmt.Fprintf(w, "BROKEN: %s\n", msg)
	}
}

// manifest is the part of BENCHMARK.json the tooling reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}
