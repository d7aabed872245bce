package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsReportGolden pins `machbench -metrics` byte for byte: both
// structures' OS counter tables, their diff and the functional file
// service's counters. A counter that appears, disappears, is renamed
// or moves shows up here. Regenerate with
// `go test ./cmd/machbench -update`.
func TestMetricsReportGolden(t *testing.T) {
	got := metricsReport()
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
