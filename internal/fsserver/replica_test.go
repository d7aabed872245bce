package fsserver

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

func TestReplicaConfigValidate(t *testing.T) {
	if err := DefaultReplicaConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	nan := 0.0
	nan /= nan
	bad := []struct {
		name string
		cfg  ReplicaConfig
		want string
	}{
		{"negative backups", ReplicaConfig{Backups: -1, AckTimeoutMicros: 1, AckRetries: 1}, "Backups"},
		{"failover without backups", ReplicaConfig{Backups: 0, Failover: true, AckTimeoutMicros: 1, AckRetries: 1}, "zero backups"},
		{"zero ack timeout", ReplicaConfig{Backups: 1, AckTimeoutMicros: 0, AckRetries: 1}, "AckTimeoutMicros"},
		{"NaN ack timeout", ReplicaConfig{Backups: 1, AckTimeoutMicros: nan, AckRetries: 1}, "AckTimeoutMicros"},
		{"zero ack retries", ReplicaConfig{Backups: 1, AckTimeoutMicros: 1, AckRetries: 0}, "AckRetries"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", c.name, err, c.want)
		}
		// NewCluster panics on exactly the validation error.
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCluster did not panic", c.name)
				}
			}()
			NewCluster(64, kernel.NewCostModel(arch.R3000), c.cfg)
		}()
	}
}

func TestReplicationShipsEveryMutation(t *testing.T) {
	// Fault-free baseline: every logged op reaches the backup before its
	// reply reaches the client, so the backup's applied cursor tracks the
	// primary's log exactly and nothing awaits acknowledgement.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(256, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatal(err)
	}
	st := cluster.Stats()
	if st.PrimarySeq == 0 || st.BackupSeq != st.PrimarySeq {
		t.Errorf("backup applied %d of %d primary records", st.BackupSeq, st.PrimarySeq)
	}
	if st.ReplicationLag != 0 {
		t.Errorf("ReplicationLag = %d after a quiescent run, want 0", st.ReplicationLag)
	}
	if st.ShipFailures != 0 || st.LagOps != 0 {
		t.Errorf("fault-free run shipped with failures: %+v", st)
	}
	if st.SeqViolations != 0 || st.Reships != 0 {
		t.Errorf("fault-free run had sequence anomalies: %+v", st)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	// The backup's eagerly-applied state already equals the primary's.
	if got, want := cluster.Backup(0).srv.CurrentFS().Fingerprint(), cluster.Primary().CurrentFS().Fingerprint(); got != want {
		t.Error("backup state diverged from primary state in a fault-free run")
	}
}

func TestKillPrimaryForeverFailsOver(t *testing.T) {
	// The deterministic failover path: the primary dies permanently
	// between ops, the next op fails over to the promoted backup, and
	// the service keeps answering with no state lost.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()

	if err := remote.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := remote.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the primary's permanent death")
	if _, err := remote.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	cluster.KillPrimaryForever()
	// Every op after the death is served by the promoted backup.
	if err := remote.Close(fd); err != nil {
		t.Fatalf("close across failover: %v", err)
	}
	st, err := remote.Stat("/d/f")
	if err != nil || st.Size != len(payload) {
		t.Fatalf("stat across failover: %+v, %v", st, err)
	}
	got, err := cluster.ActiveFS().ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("promoted state = %q (err %v), want the payload", got, err)
	}
	cst := cluster.Stats()
	if cst.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", cst.Failovers)
	}
	if cst.PromotedEpoch < 2 {
		t.Errorf("PromotedEpoch = %d, want >= 2 (fencing the dead primary's epoch 1)", cst.PromotedEpoch)
	}
	if !cluster.Backup(0).Promoted() {
		t.Error("backup not marked promoted")
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	if ws := remote.Stats().Wire; ws.Failovers != 1 {
		t.Errorf("client observed %d failovers, want 1", ws.Failovers)
	}
}

// killAtPreReply fires permanently at the k-th pre-reply draw: the op is
// logged, shipped, and applied — and the primary is dead before the
// reply leaves, forever.
type killAtPreReply struct {
	k     int
	n     int
	fired bool
}

func (c *killAtPreReply) CrashNow(p faultplane.CrashPoint) bool {
	if p != faultplane.CrashPreReply {
		return false
	}
	c.n++
	if c.n == c.k {
		c.fired = true
		return true
	}
	return false
}

func (c *killAtPreReply) Fatal() bool { return c.fired }

func TestDedupHoldsAcrossPromotion(t *testing.T) {
	// The at-most-once hazard, replicated edition: the primary executes
	// a write, ships it, and dies permanently before replying. The
	// client retransmits, gives up on the primary, and the same call ID
	// lands on the promoted backup — which has never served this client,
	// so its reply cache is as empty as any eviction could make it. The
	// shipped WAL session table must answer the retransmission; the
	// handler must not run again.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()
	// Pre-reply draws: one per executed call. create=1, write=2.
	cluster.SetCrashPlane(&killAtPreReply{k: 2})

	fd, err := remote.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("acknowledged exactly once, by whichever replica answers")
	n, err := remote.Write(fd, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write across failover: n=%d err=%v", n, err)
	}
	got, err := cluster.ActiveFS().ReadFile("/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file = %q (err %v), want the payload exactly once", got, err)
	}
	cst := cluster.Stats()
	if cst.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", cst.Failovers)
	}
	bst := cluster.Backup(0).srv.Wire.Stats()
	if bst.LogDuplicates != 1 {
		t.Errorf("backup LogDuplicates = %d, want 1 (retransmit answered from the shipped WAL)", bst.LogDuplicates)
	}
	if bst.Served != 0 {
		t.Errorf("backup executed %d fresh calls for the retransmission, want 0", bst.Served)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	// The regenerated reply carries the promoted epoch; the client's
	// fence has adopted it.
	if fence := remote.fo.Fence().Max(); fence < 2 {
		t.Errorf("client fence = %d, want the promoted epoch (>= 2)", fence)
	}
}

func TestReplicationPartitionCatchUp(t *testing.T) {
	// Seeded total-loss bursts on the replication link are partitions:
	// each swallows six consecutive ship frames in either direction. A
	// ship call sends at most AckRetries+1 = 3 frames, so a partition
	// that opens on a call blows its ack budget, and the shipping cursor
	// re-ships what the failed call left behind — by the end of the run
	// the backup has applied everything, exactly once.
	cm := kernel.NewCostModel(arch.R3000)
	cfg := DefaultReplicaConfig()
	cfg.AckRetries = 2
	cluster := NewCluster(256, cm, cfg)
	part := faultplane.New(faultplane.Policy{Seed: 1991, BurstProb: 0.02, BurstLen: 6, BurstLoss: 1})
	cluster.ReplLink(0).SetFaultPlane(part)
	remote := cluster.NewClient()
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatal(err)
	}
	pc := part.Counts()
	if pc.Bursts == 0 {
		t.Fatalf("partition schedule never fired: %+v", pc)
	}
	st := cluster.Stats()
	if st.BackupSeq != st.PrimarySeq || st.ReplicationLag != 0 {
		t.Errorf("backup applied %d of %d (lag %d) after partitions healed",
			st.BackupSeq, st.PrimarySeq, st.ReplicationLag)
	}
	if st.SeqViolations != 0 {
		t.Errorf("SeqViolations = %d, want 0", st.SeqViolations)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	if st.ShipFailures == 0 || st.Reships == 0 {
		t.Errorf("ShipFailures = %d, Reships = %d: no partition blew the ack budget, so the re-ship path never ran",
			st.ShipFailures, st.Reships)
	}
	t.Logf("partitions=%d dropped=%d shipCalls=%d shipFailures=%d reships=%d lagOps=%d",
		pc.Bursts, pc.Dropped, st.ShipCalls, st.ShipFailures, st.Reships, st.LagOps)
}

func TestLaggingBackupShipsFromItsOwnCursor(t *testing.T) {
	// Backups standing at the same cursor in a ship round are sent one
	// shared batch; a backup whose cursor diverged must be shipped from
	// its own. A script drops every frame on one backup's replication
	// link for a stretch of writes, so that backup falls behind while
	// the other keeps up; once the link heals, the very next op must
	// bring it level with the log, and neither backup may be sent a
	// record it already holds. Both backups take a turn lagging: the
	// one shipped first and the one shipped second.
	const retries, stretch = 2, 12
	payload := bytes.Repeat([]byte("0123456789abcdef"), 256)
	for lag := 0; lag < 2; lag++ {
		cm := kernel.NewCostModel(arch.R3000)
		cluster := NewCluster(64, cm, ReplicaConfig{Backups: 2, AckTimeoutMicros: 2e6, AckRetries: retries})
		remote := cluster.NewClient()
		mono := fs.New(64)
		write := func(path string) {
			t.Helper()
			fd, err := remote.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := remote.Write(fd, payload); err != nil {
				t.Fatal(err)
			}
			if err := remote.Close(fd); err != nil {
				t.Fatal(err)
			}
			if err := mono.WriteFile(path, payload); err != nil {
				t.Fatal(err)
			}
		}
		write("/before")

		link := cluster.ReplLink(lag)
		faults := &faultplane.Script{}
		link.SetFaultPlane(faults)
		// Each logged op makes one ship call to the lagging backup, and
		// each of its retries-plus-one frames is dropped.
		first, last := link.Frames()+1, link.Frames()+3*stretch*(retries+1)
		for n := first; n <= last; n++ {
			faults.Drop(n)
		}
		for i := 0; i < stretch; i++ {
			write(fmt.Sprintf("/f%d", i))
		}
		if got := link.Frames(); got != last {
			t.Fatalf("lag %d: the stretch sent %d frames on the dropped link, want %d", lag, got-first+1, last-first+1)
		}
		behind, ahead := cluster.Backup(lag).AppliedSeq(), cluster.Backup(1-lag).AppliedSeq()
		if behind >= ahead {
			t.Fatalf("lag %d: backup cursors %d and %d did not diverge", lag, behind, ahead)
		}

		if err := remote.Mkdir("/healed"); err != nil {
			t.Fatal(err)
		}
		if err := mono.Mkdir("/healed"); err != nil {
			t.Fatal(err)
		}
		st := cluster.Stats()
		for i := 0; i < 2; i++ {
			if got := cluster.Backup(i).AppliedSeq(); got != st.PrimarySeq {
				t.Errorf("lag %d: backup %d applied %d of %d after the link healed", lag, i, got, st.PrimarySeq)
			}
		}
		if st.LagOps != 3*stretch || st.Reships != 0 || st.CursorCorrections != 0 || st.SeqViolations != 0 {
			t.Errorf("lag %d: LagOps %d (want %d), Reships %d, CursorCorrections %d, SeqViolations %d (want 0)",
				lag, st.LagOps, 3*stretch, st.Reships, st.CursorCorrections, st.SeqViolations)
		}
		if err := cluster.Audit(); err != nil {
			t.Errorf("lag %d: %v", lag, err)
		}
		want := mono.Fingerprint()
		for i, fp := range cluster.NodeFingerprints() {
			if fp != want {
				t.Errorf("lag %d: node %d diverged from the monolithic state", lag, i)
			}
		}
	}
}

// failoverRun replays the script against a replica set under chaos on
// the client–primary link plus a kill-forever crash schedule on the
// primary, returning everything needed to assert convergence and
// byte-reproducibility.
func failoverRun(t *testing.T, cm *kernel.CostModel, seed int64, record bool) (string, Stats, ClusterStats, faultplane.CrashCounts, float64, []obs.Event) {
	t.Helper()
	cluster := NewCluster(256, cm, DefaultReplicaConfig())
	cluster.PrimaryLink().SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	crash := faultplane.NewCrash(faultplane.ChaosKill(seed), nil)
	cluster.SetCrashPlane(crash)
	remote := cluster.NewClient()
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(cluster.Clock())
		remote.SetRecorder(rec)
	}
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("failover soak (seed %d) failed: %v", seed, err)
	}
	if err := cluster.Audit(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	final := remote.ServerFS()
	if final.OpenFDs() != 0 {
		t.Errorf("failover soak (seed %d) leaked %d descriptors", seed, final.OpenFDs())
	}
	var events []obs.Event
	if rec != nil {
		events = rec.Events()
	}
	return final.Fingerprint(), remote.Stats(), cluster.Stats(), crash.Counts(), cluster.Clock().Clock(), events
}

func TestFailoverSoakConvergesToMonolithic(t *testing.T) {
	// The acceptance soak: chaos faults on the client–primary link, the
	// primary crashing on a kill-forever schedule (two recoveries, then
	// permanent death mid-run), a backup promoting itself — and the
	// replicated service's final state must still be byte-identical to
	// the fault-free monolithic run, with zero duplicate executions.
	cm := kernel.NewCostModel(arch.R3000)
	want := cleanMonolithicFingerprint(t, cm)
	for _, seed := range []int64{1991, 42, 7} {
		got, st, cst, cc, _, _ := failoverRun(t, cm, seed, false)
		if got != want {
			t.Errorf("seed %d: replicated state diverged from fault-free monolithic state", seed)
		}
		if cc.Crashes != 3 {
			t.Errorf("seed %d: kill schedule fired %d crashes, want 3 (the third permanent)", seed, cc.Crashes)
		}
		if cst.Failovers != 1 {
			t.Errorf("seed %d: Failovers = %d, want exactly 1", seed, cst.Failovers)
		}
		if cst.PromotedEpoch < 2 {
			t.Errorf("seed %d: PromotedEpoch = %d, want >= 2", seed, cst.PromotedEpoch)
		}
		if cst.SeqViolations != 0 {
			t.Errorf("seed %d: %d sequence violations in the shipped stream", seed, cst.SeqViolations)
		}
		if st.DegradedOps != 0 {
			t.Errorf("seed %d: %d ops degraded despite failover", seed, st.DegradedOps)
		}
		if st.Wire.Failovers != 1 {
			t.Errorf("seed %d: client counted %d failovers, want 1", seed, st.Wire.Failovers)
		}
		t.Logf("seed %d: crashes=%d failover@epoch=%d shipCalls=%d shipFailures=%d reships=%d logDups=%d",
			seed, cc.Crashes, cst.PromotedEpoch, cst.ShipCalls, cst.ShipFailures, cst.Reships, st.Wire.LogDuplicates)
	}
}

func TestFailoverSoakIsBitReproducible(t *testing.T) {
	// Same seed, same crashes, same promotion, same bytes: fingerprint,
	// stats, cluster counters, crash counts, the shared virtual clock,
	// and the full event stream must match between two runs.
	cm := kernel.NewCostModel(arch.R3000)
	fp1, st1, cst1, cc1, clock1, ev1 := failoverRun(t, cm, 1991, true)
	fp2, st2, cst2, cc2, clock2, ev2 := failoverRun(t, cm, 1991, true)
	if fp1 != fp2 {
		t.Error("same seed produced different file-system states")
	}
	if st1 != st2 {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", st1, st2)
	}
	if cst1 != cst2 {
		t.Errorf("same seed produced different cluster stats:\n%+v\n%+v", cst1, cst2)
	}
	if cc1 != cc2 {
		t.Errorf("same seed produced different crash counts:\n%+v\n%+v", cc1, cc2)
	}
	if clock1 != clock2 {
		t.Errorf("same seed produced different virtual clocks: %v vs %v", clock1, clock2)
	}
	if len(ev1) == 0 || !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("same seed produced different event streams (%d vs %d events)", len(ev1), len(ev2))
	}
}

func TestDeposedPrimaryShipIsRejected(t *testing.T) {
	// Replication-plane fencing: once a backup has promoted itself, a
	// ship call from a deposed primary must be refused, not applied.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()
	if err := remote.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	cluster.KillPrimaryForever()
	if err := remote.Mkdir("/d2"); err != nil { // promotes the backup
		t.Fatal(err)
	}
	// A zombie primary trying to ship now must get an error back; the
	// cursor query stays answerable (it is read-only).
	ship := wire.NewClient(cluster.ReplLink(0), wire.A)
	if _, err := ship.Call(cluster.Backup(0).Repl, ProcReplSeq); err != nil {
		t.Fatalf("seq query should still answer: %v", err)
	}
	payload, err := fs.EncodeRecords([]fs.Record{{Seq: 99, Op: fs.OpMkdir, Path: "/zombie"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ship.Call(cluster.Backup(0).Repl, ProcShip, uint32(1), payload); err == nil {
		t.Fatal("promoted backup accepted a ship from a deposed primary")
	}
	if _, err := cluster.ActiveFS().Stat("/zombie"); err == nil {
		t.Error("zombie ship mutated the promoted state")
	}
}

func TestMalformedReplicationInputGetsErrorReply(t *testing.T) {
	// The replication procedures decode wire input: a malformed call
	// must earn an error reply and leave the backup serving — never
	// crash the process with an index or type-assertion panic.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	if err := cluster.NewClient().Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	backup := cluster.Backup(0)
	before := backup.AppliedSeq()
	ship := wire.NewClient(cluster.ReplLink(0), wire.A)
	// A sealed successor record: only the damage to its batch stands
	// between it and the backup's log.
	w := fs.NewWAL(64)
	for w.LastSeq() < before {
		w.Append(fs.Record{Op: fs.OpMkdir, Path: "/d"})
	}
	batch, err := fs.EncodeRecords([]fs.Record{w.Append(fs.Record{Op: fs.OpMkdir, Path: "/e"})})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		proc uint32
		args []interface{}
	}{
		{"ship without args", ProcShip, nil},
		{"ship with (int64, string)", ProcShip, []interface{}{int64(1), "records"}},
		{"ship of a batch cut short", ProcShip, []interface{}{uint32(1), batch[:len(batch)-1]}},
		{"ship of a batch with a trailing byte", ProcShip, []interface{}{uint32(1), append(batch, 0)}},
		{"snapshot install with only an epoch", ProcSnapInstall, []interface{}{uint32(1)}},
		{"scrub with a string epoch", ProcScrub, []interface{}{"1", uint64(4)}},
		{"scrub of too many ranges", ProcScrub, []interface{}{uint32(1), uint64(1) << 40}},
		{"seq query with a string epoch", ProcReplSeq, []interface{}{"1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ship.Call(backup.Repl, tc.proc, tc.args...)
			var remote *wire.RemoteError
			if !errors.As(err, &remote) {
				t.Fatalf("err = %v, want a *wire.RemoteError", err)
			}
		})
	}
	out, err := ship.Call(backup.Repl, ProcReplSeq)
	if err != nil {
		t.Fatalf("well-formed seq query after malformed input: %v", err)
	}
	if seq := out[0].(uint64); seq != before {
		t.Errorf("applied seq = %d after malformed input, want %d unchanged", seq, before)
	}
}
