package fsserver

import (
	"testing"

	"archos/internal/arch"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// readAllocs measures the steady-state allocations of one Stat and one
// ReadDir through r, over a small tree and after a warm-up that fills
// the frame pools and the recorder's histogram classes.
func readAllocs(t *testing.T, r *Remote) (stat, readDir float64) {
	t.Helper()
	if err := r.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/d/a", "/d/b", "/d/c"} {
		fd, err := r.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	doStat := func() {
		if _, err := r.Stat("/d/a"); err != nil {
			t.Fatal(err)
		}
	}
	doReadDir := func() {
		if names, err := r.ReadDir("/d"); err != nil || len(names) != 3 {
			t.Fatalf("ReadDir = %v, %v", names, err)
		}
	}
	for i := 0; i < 16; i++ {
		doStat()
		doReadDir()
	}
	return testing.AllocsPerRun(300, doStat), testing.AllocsPerRun(300, doReadDir)
}

func TestReplicatedReadPathAllocatesLikeSingleServer(t *testing.T) {
	// A Remote spanning a replica set places its calls on the same path
	// as a single-server Remote, so a read — which ships nothing — costs
	// the same allocations per op.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cm := kernel.NewCostModel(arch.R3000)
	singleStat, singleDir := readAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	cluster := NewCluster(64, cm, ReplicaConfig{Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64})
	replStat, replDir := readAllocs(t, cluster.NewClient())
	t.Logf("allocs/op: Stat %.1f single, %.1f replicated; ReadDir %.1f single, %.1f replicated",
		singleStat, replStat, singleDir, replDir)
	if replStat > singleStat {
		t.Errorf("replicated Stat allocates %.1f per op, single-server %.1f", replStat, singleStat)
	}
	if replDir > singleDir {
		t.Errorf("replicated ReadDir allocates %.1f per op, single-server %.1f", replDir, singleDir)
	}
}

func TestTracingAddsNoAllocationInRemote(t *testing.T) {
	// The per-op latency observations of an attached flight recorder
	// must ride the call path for free, as the wire layers' events do.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cm := kernel.NewCostModel(arch.R3000)
	plainStat, _ := readAllocs(t, NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet)))
	link := wire.NewLink(localNet)
	traced := NewRemoteOnLink(fs.New(64), cm, link)
	traced.SetRecorder(obs.NewFlightRecorder(link, 1<<12))
	tracedStat, _ := readAllocs(t, traced)
	t.Logf("allocs/op: Stat %.1f untraced, %.1f traced", plainStat, tracedStat)
	if tracedStat != plainStat {
		t.Errorf("traced Stat allocates %.1f per op, untraced %.1f", tracedStat, plainStat)
	}
}
