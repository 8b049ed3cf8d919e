package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pprox/internal/sim"
	"pprox/internal/stats"
)

func testRows() []sim.Row {
	return []sim.Row{
		{Figure: "6", Config: "m1", RPS: 50, Candle: stats.Candlestick{N: 3, Median: 2 * time.Millisecond}},
		{Figure: "6", Config: "m3", RPS: 100, Candle: stats.Candlestick{N: 4, Median: 5 * time.Millisecond}},
	}
}

// TestWriteCSVReportsAFullDevice: a figure whose CSV cannot be written
// must fail the run, not print "(csv written …)" and exit 0.
func TestWriteCSVReportsAFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "fig6.csv")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if _, err := writeCSV(dir, testRows()); err == nil {
		t.Fatal("writeCSV onto a full device returned nil")
	}
	if err := printFigure("Figure 6", testRows(), dir); err == nil {
		t.Fatal("printFigure swallowed the failed CSV write")
	}
}

func TestWriteCSVReadsBackHeaderAndRows(t *testing.T) {
	dir := t.TempDir()
	path, err := writeCSV(dir, testRows())
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "fig6.csv"); path != want {
		t.Errorf("path = %s, want %s", path, want)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"config", "rps", "n", "whisker_low_ms", "p25_ms", "median_ms", "p75_ms", "whisker_high_ms", "max_ms"},
		{"m1", "50", "3", "0.000", "0.000", "2.000", "0.000", "0.000", "0.000"},
		{"m3", "100", "4", "0.000", "0.000", "5.000", "0.000", "0.000", "0.000"},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("read back %q, want %q", recs, want)
	}
}
