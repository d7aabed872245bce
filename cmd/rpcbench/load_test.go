package main

import (
	"slices"
	"testing"

	"archos/internal/workload"
)

// TestCheckReplay pins the verdict `rpcbench -load` exits 1 on: each
// run of the default soak replays from its accepted set to its own
// fingerprint, and the same result with one accepted Mkdir removed
// does not.
func TestCheckReplay(t *testing.T) {
	cfg := workload.DefaultLoadConfig()
	for _, controls := range []workload.LoadControls{workload.ControlsOff(), workload.ControlsOn()} {
		cfg.Controls = controls
		res, err := workload.RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReplay(res, cfg.CacheBlocks); err != nil {
			t.Errorf("controls %+v: the real result fails its replay: %v", controls, err)
		}
		n := len(res.AcceptedMkdirs)
		if n == 0 {
			t.Fatalf("controls %+v: no accepted mkdirs to remove", controls)
		}
		res.AcceptedMkdirs = slices.Delete(res.AcceptedMkdirs, n/2, n/2+1)
		if err := checkReplay(res, cfg.CacheBlocks); err == nil {
			t.Errorf("controls %+v: replay passed with one of %d accepted mkdirs removed", controls, n)
		}
	}
}
