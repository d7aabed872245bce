package main

import (
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
