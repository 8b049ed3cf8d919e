package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload once in a fresh process — the same way the
// benchmark is run from outside, so memory and warm-up do not carry over
// — and parses the result off the last line of its output.
func child(w Workload, seed int64, seconds int, trace bool, echo io.Writer) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s seed %d: %w", w.Name, seed, runErr)
		}
		return res, fmt.Errorf("%s seed %d: no result line: %w", w.Name, seed, err)
	}
	return res, nil // a failing run still reports; the caller reads Correct
}

// runAll runs every workload untraced and then traced and writes the
// results, keyed by workload, to out when set. It returns the exit code.
func runAll(workloads []Workload, seed int64, seconds int, out string) int {
	code := 0
	results := map[string]map[string]Result{}
	for _, w := range workloads {
		results[w.Name] = map[string]Result{}
		for _, trace := range []bool{false, true} {
			res, err := child(w, seed, seconds, trace, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			kind := "end_to_end"
			if trace {
				kind = "per_layer"
			}
			results[w.Name][kind] = res
		}
	}
	if out != "" {
		if err := writeJSON(out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// cell is one end-to-end metric on one workload over a set of runs.
type cell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
}

// runRepeat runs n untraced sets, one seed each, and prints per metric
// and workload the median, the quartiles and the quartile spread against
// the bound BENCHMARK.json records. A cell whose spread exceeds its bound
// is unresolved: a later comparison on it could not tell a regression
// from noise. With a baseline (an earlier set's -out file) each median
// must also be no worse than the baseline's by more than the bound.
// Anything unresolved, disagreeing or failed makes the exit code 1.
func runRepeat(workloads []Workload, seed int64, seconds, n int, baseline, out string) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 1
	}
	var before []cell
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err == nil {
			err = json.Unmarshal(data, &before)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: baseline:", err)
			return 1
		}
	}

	code := 0
	var cells []cell
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := child(w, seed+int64(i), seconds, false, io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d requests failed or an invariant broke\n", w.Name, seed+int64(i), res.Failed, res.Attempted)
				code = 1
			}
			for name, metric := range res.Metrics {
				values[name] = append(values[name], metric.Value)
			}
			fmt.Fprintf(os.Stderr, "%s: run %d of %d done\n", w.Name, i+1, n)
		}
		for _, def := range m.EndToEnd {
			if len(values[def.Name]) == 0 {
				continue
			}
			c := cell{Workload: w.Name, Metric: def.Name, Values: values[def.Name], Bound: def.Bound}
			c.Q1, c.Median, c.Q3, c.Spread = quartileSpread(c.Values)
			cells = append(cells, c)
		}
	}

	fmt.Printf("%-18s %-16s %12s %12s %12s %8s %7s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, c := range cells {
		verdict := "ok"
		// setup_s is gated on its median only: key generation makes single
		// set-ups vary more than any bound.
		if c.Spread > c.Bound && c.Metric != "setup_s" {
			verdict, code = "unresolved", 1
		}
		for _, b := range before {
			if b.Workload == c.Workload && b.Metric == c.Metric && c.Median > b.Median*(1+c.Bound) {
				verdict, code = fmt.Sprintf("disagrees with baseline median %.4f", b.Median), 1
			}
		}
		fmt.Printf("%-18s %-16s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.Q1, c.Median, c.Q3, 100*c.Spread, 100*c.Bound, verdict)
	}
	if out != "" {
		if err := writeJSON(out, cells); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
