package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a temporary file
// and returns what f printed along with f's result.
func captureStdout(t *testing.T, f func() bool) (string, bool) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	ok := f()
	os.Stdout = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ok
}

// TestSoakOutputGolden pins the stdout of the seeded soaks byte for
// byte: every counter, virtual time, trace-event count and verdict.
// Two same-seed runs agreeing with each other shows only determinism;
// a change that moves a fault stream the same way in both runs still
// shows here. (-clients is left out: its aggregate line carries
// wall-clock figures.) Regenerate with `go test ./cmd/rpcbench -update`.
func TestSoakOutputGolden(t *testing.T) {
	soaks := []struct {
		golden string
		run    func() bool
	}{
		{"soak_chaos_seed7.golden", func() bool { return printChaos(7, false, false, "", "") }},
		{"soak_chaos_crash_seed11.golden", func() bool { return printChaos(11, true, false, "", "") }},
		{"soak_chaos_batch_seed7.golden", func() bool { return printChaos(7, false, true, "", "") }},
		{"soak_replicas1_seed13.golden", func() bool { return printReplicas(1, 13, false, "", "") }},
		{"soak_replicas2_seed3.golden", func() bool { return printReplicas(2, 3, false, "", "") }},
		{"soak_replicas2_rejoin_seed1991.golden", func() bool { return printReplicas(2, 1991, true, "", "") }},
	}
	for _, s := range soaks {
		got, ok := captureStdout(t, s.run)
		if !ok {
			t.Errorf("%s: soak failed or printed a ✗ verdict:\n%s", s.golden, got)
		}
		golden := filepath.Join("testdata", s.golden)
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
			t.Errorf("%s: soak output drifted from golden\ngot:\n%s\nwant:\n%s", s.golden, got, want)
		}
	}
}

// TestSoakTraceHashes pins the JSONL event stream of four soaks by its
// SHA-256, as TestFlightRecorderDeterministic pins the flight dumps:
// TestSoakOutputGolden holds only their stdout, and two same-seed runs
// agreeing with each other would miss an event moved alike in both.
// The replicated soaks cover shipping, failover and the deposed
// primary's rejoin; the crash soak covers the single-server WAL and
// its recovery. A change that moves an event on purpose re-pins the
// hash here and says why.
func TestSoakTraceHashes(t *testing.T) {
	soaks := []struct {
		name string
		run  func(jsonl string) bool
		sum  string
	}{
		{"replicas1_seed13", func(p string) bool { return printReplicas(1, 13, false, "", p) },
			"73b4aa1f4be552c99036a3b5a95fa595518e0ba95d192544c465d2f04c2d0bde"},
		{"replicas2_seed3", func(p string) bool { return printReplicas(2, 3, false, "", p) },
			"4f18fdb2b56cb8e125322c681784024b3617985e98045c395ea0bf2a4a85e8c6"},
		{"replicas2_rejoin_seed1991", func(p string) bool { return printReplicas(2, 1991, true, "", p) },
			"ae269cb66d219bfa698c15e24370c4f5e17f5e77741fecce3d47636f65879b48"},
		{"chaos_crash_seed11", func(p string) bool { return printChaos(11, true, false, "", p) },
			"ab94c2f817d290ddc2f1d98abf065948c588a57f8cd85328a113094f3cc3b0d8"},
	}
	for _, s := range soaks {
		path := filepath.Join(t.TempDir(), s.name+".jsonl")
		if out, ok := captureStdout(t, func() bool { return s.run(path) }); !ok {
			t.Errorf("%s: soak failed or printed a ✗ verdict:\n%s", s.name, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != s.sum {
			t.Errorf("%s: JSONL SHA-256 %s, pinned %s", s.name, got, s.sum)
		}
	}
}
