package workload

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// stackOutcome is everything one stack run reports: its nodes' state
// fingerprints, its counters, its final virtual clock and the JSONL
// bytes of its recorder, or the results of a RunLoad pair.
type stackOutcome struct {
	fingerprints []string
	stats        fsserver.Stats
	cluster      fsserver.ClusterStats
	clock        float64
	jsonl        []byte
	load         [2]*LoadResult
	err          error
}

// clusterSoak is the self-healing soak of `rpcbench -replicas 2
// -rejoin`: a primary and two backups on one clock, chaos on the client
// link, a kill schedule on the primary, transient kills on the backups,
// at-rest disk faults on every revival, and a recorder on the cluster.
func clusterSoak(seed int64) stackOutcome {
	cluster := fsserver.NewCluster(256, kernel.NewCostModel(arch.R3000), fsserver.ReplicaConfig{
		Backups: 2, Failover: true, AckTimeoutMicros: 2e6, AckRetries: 64,
	})
	cluster.PrimaryLink().SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	cluster.SetCrashPlane(faultplane.NewCrash(faultplane.ChaosKill(seed), nil))
	cluster.EnableSelfHeal(fsserver.SelfHealPolicy{RejoinDelayMicros: 5e5, ScrubIntervalMicros: 5e5, ScrubRanges: 16})
	for i := 0; i < 2; i++ {
		cluster.SetBackupKillPlane(i, faultplane.ChaosRejoin(seed+int64(i)+1))
	}
	cluster.SetDiskPlane(faultplane.ChaosDisk(seed))
	remote := cluster.NewClient()
	rec := obs.NewRecorder(cluster.Clock())
	remote.SetRecorder(rec)
	if _, err := fsserver.DefaultAndrewMini().Run(remote); err != nil {
		return stackOutcome{err: err}
	}
	cluster.Quiesce()
	out := stackOutcome{
		fingerprints: cluster.NodeFingerprints(),
		stats:        remote.Stats(),
		cluster:      cluster.Stats(),
		clock:        cluster.Clock().Clock(),
	}
	out.jsonl, out.err = traceJSONL(rec)
	return out
}

// serverSoak is the crash soak of `rpcbench -chaos -crash`: one server
// under link chaos and a seeded crash schedule, with a recorder.
func serverSoak(seed int64) stackOutcome {
	link := wire.NewLink(ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6})
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	remote := fsserver.NewRemoteOnLink(fs.New(256), kernel.NewCostModel(arch.R3000), link)
	remote.SetCrashPlane(faultplane.NewCrash(faultplane.ChaosCrash(seed), nil))
	rec := obs.NewRecorder(link)
	remote.SetRecorder(rec)
	if _, err := fsserver.DefaultAndrewMini().Run(remote); err != nil {
		return stackOutcome{err: err}
	}
	out := stackOutcome{
		fingerprints: []string{remote.ServerFS().Fingerprint()},
		stats:        remote.Stats(),
		clock:        link.Clock(),
	}
	out.jsonl, out.err = traceJSONL(rec)
	return out
}

// loadPair is the overload soak: the same seeded burst undefended, then
// defended.
func loadPair(seed int64) stackOutcome {
	var out stackOutcome
	cfg := DefaultLoadConfig()
	cfg.Seed = seed
	cfg.DurationMicros = 1_000_000
	for i, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
		cfg.Controls = controls
		if out.load[i], out.err = RunLoad(cfg); out.err != nil {
			break
		}
	}
	return out
}

// traceJSONL exports a recorder's retained events as JSONL bytes.
func traceJSONL(rec *obs.Recorder) ([]byte, error) {
	var b bytes.Buffer
	err := obs.WriteJSONL(&b, rec.Events())
	return b.Bytes(), err
}

// TestParallelStacksShareNothing checks the single-ownership contract
// (see package wire): independent stacks share nothing, not even the
// frame buffers each recycles on its own VClock, so stacks driven at
// once, each by its own goroutine, report exactly what each reports
// when run alone — state fingerprints, counters, clocks, recorder JSONL
// and LoadResults. Under -race, any state these runs reach from two
// goroutines, a buffer that crossed stacks included, is a reported race.
func TestParallelStacksShareNothing(t *testing.T) {
	stacks := []struct {
		name string
		run  func() stackOutcome
	}{
		{"2-backup cluster, chaos and rejoin", func() stackOutcome { return clusterSoak(1991) }},
		{"overload soak pair", func() stackOutcome { return loadPair(1991) }},
		{"single server, chaos and crashes", func() stackOutcome { return serverSoak(11) }},
	}
	alone := make([]stackOutcome, len(stacks))
	for i, s := range stacks {
		alone[i] = s.run()
		if alone[i].err != nil {
			t.Fatalf("%s alone: %v", s.name, alone[i].err)
		}
	}
	together := make([]stackOutcome, len(stacks))
	var wg sync.WaitGroup
	for i, s := range stacks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = s.run()
		}()
	}
	wg.Wait()
	for i, s := range stacks {
		switch {
		case together[i].err != nil:
			t.Errorf("%s beside the other stacks: %v", s.name, together[i].err)
		case !reflect.DeepEqual(alone[i], together[i]):
			t.Errorf("%s: run beside the other stacks, it differs from the same seed run alone", s.name)
		}
	}
}
