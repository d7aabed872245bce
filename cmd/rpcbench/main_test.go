package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/fsserver"
	"archos/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestClientLatencyTableGolden pins the -clients table format: the
// percentile columns must come from the histograms, render with one
// decimal, and align. Regenerate with `go test ./cmd/rpcbench -update`.
func TestClientLatencyTableGolden(t *testing.T) {
	mk := func(vals ...float64) *obs.Histogram {
		h := &obs.Histogram{}
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	rows := []clientRow{
		{Label: "c00", Ops: 120, Retries: 3, Degraded: 0, Lat: mk(40, 55, 63, 70, 91, 128, 250)},
		{Label: "c01", Ops: 120, Retries: 11, Degraded: 2, Lat: mk(48, 52, 77, 90, 1024, 4096)},
		// A client that never completed an op: all percentiles read 0.
		{Label: "c02", Ops: 0, Retries: 5, Degraded: 3, Lat: &obs.Histogram{}},
	}
	got := clientLatencyTable(rows).String()

	golden := filepath.Join("testdata", "clients_table.golden")
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
		t.Errorf("table drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCrashSummaryTableGolden pins the -crash summary format: the
// per-window crash breakdown, the WAL accounting, and the recovery
// percentiles with one decimal. Regenerate with
// `go test ./cmd/rpcbench -update`.
func TestCrashSummaryTableGolden(t *testing.T) {
	recovery := &obs.Histogram{}
	for _, v := range []float64{512, 640, 1024, 1536, 2212} {
		recovery.Observe(v)
	}
	cc := faultplane.CrashCounts{Points: 2600, Crashes: 5, OnRecv: 2, PreApply: 1, PreReply: 2}
	st := fsserver.Stats{RecoveryReplayedOps: 1314}
	st.Wire.Restarts = 5
	st.Wire.LogDuplicates = 3
	st.Wire.SessionsReestablished = 5
	got := crashSummaryTable(cc, st, recovery).String()

	golden := filepath.Join("testdata", "crash_table.golden")
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
		t.Errorf("table drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReplicaSummaryTableGolden pins the -replicas table format: the
// kill-schedule accounting, the shipping counters, the promotion and
// failover-gap percentiles, and the self-healing rows (rejoins, state
// transfers, quarantine, scrub repairs). Regenerate with
// `go test ./cmd/rpcbench -update`.
func TestReplicaSummaryTableGolden(t *testing.T) {
	promotion := &obs.Histogram{}
	promotion.Observe(934)
	failover := &obs.Histogram{}
	for _, v := range []float64{812, 934, 1210} {
		failover.Observe(v)
	}
	rejoin := &obs.Histogram{}
	rejoin.Observe(501234)
	cc := faultplane.CrashCounts{Points: 1800, Crashes: 3, OnRecv: 1, PreApply: 0, PreReply: 2}
	st := fsserver.Stats{Recoveries: 2}
	st.Wire.LogDuplicates = 2
	st.Wire.Failovers = 1
	st.Wire.FencedReplies = 1
	cst := fsserver.ClusterStats{
		Backups:       2,
		Failovers:     1,
		PromotedEpoch: 4,
		PrimarySeq:    67,
		BackupSeq:     67,
		ReplStats: fsserver.ReplStats{
			ShipCalls:         67,
			ShipFailures:      2,
			LagOps:            1,
			CursorCorrections: 3,
			StateTransfers:    1,
			SnapChunks:        2,
		},
		Reships:        2,
		Rejoins:        1,
		FencedShips:    1,
		Quarantined:    4,
		Discarded:      2,
		ScrubPasses:    5,
		ScrubRepairs:   1,
		RepairedRanges: 3,
	}
	got := replicaSummaryTable(cc, st, cst, promotion, failover, rejoin).String()

	golden := filepath.Join("testdata", "replicas_table.golden")
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
		t.Errorf("table drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
