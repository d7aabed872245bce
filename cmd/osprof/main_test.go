package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name byte for byte, rewriting
// the file first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestCritpathReportGolden pins the -critpath report byte for byte:
// the replicated chaos+crash soak on the default seed must fold into
// exactly this per-layer cost table, run after run, machine after
// machine. Regenerate with `go test ./cmd/osprof -update`.
func TestCritpathReportGolden(t *testing.T) {
	got, err := critpathReport(1991, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "critpath.golden", got)
}

// TestProfileReportGolden pins the default report — `osprof` and
// `osprof -chaos -seed 3` — byte for byte: the virtual-time breakdown,
// the latency table and every row of the metrics snapshot. A counter
// that appears, disappears or moves shows up here. Regenerate with
// `go test ./cmd/osprof -update`.
func TestProfileReportGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		chaos  bool
		seed   int64
	}{
		{"profile.golden", false, 1991},
		{"profile_chaos_seed3.golden", true, 3},
	} {
		got, _, err := profileReport(c.chaos, c.seed, false)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.golden, got)
	}
}

// TestCritpathReportDeterministic: two runs on the same seed are
// byte-identical; a different seed genuinely changes the report.
func TestCritpathReportDeterministic(t *testing.T) {
	a, err := critpathReport(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := critpathReport(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-seed critpath reports differ")
	}
	c, err := critpathReport(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical critpath reports")
	}
}
