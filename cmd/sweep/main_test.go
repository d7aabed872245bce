package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDecomposeGolden pins `sweep -decompose` byte for byte: the table
// is read from each simulated OS's exported counters, so a renamed or
// re-keyed counter shows up here. Regenerate with
// `go test ./cmd/sweep -update`.
func TestDecomposeGolden(t *testing.T) {
	got := sweepDecompose()
	golden := filepath.Join("testdata", "decompose.golden")
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
		t.Errorf("table drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
