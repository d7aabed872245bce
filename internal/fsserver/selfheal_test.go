package fsserver

import (
	"reflect"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/kernel"
	"archos/internal/obs"
)

func TestSelfHealPolicyValidate(t *testing.T) {
	if err := DefaultSelfHealPolicy().Validate(); err != nil {
		t.Fatalf("default policy rejected: %v", err)
	}
	nan := 0.0
	nan /= nan
	bad := []struct {
		name string
		p    SelfHealPolicy
		want string
	}{
		{"negative rejoin delay", SelfHealPolicy{RejoinDelayMicros: -1, ScrubIntervalMicros: 1, ScrubRanges: 1}, "RejoinDelayMicros"},
		{"NaN rejoin delay", SelfHealPolicy{RejoinDelayMicros: nan, ScrubIntervalMicros: 1, ScrubRanges: 1}, "RejoinDelayMicros"},
		{"zero scrub interval", SelfHealPolicy{ScrubIntervalMicros: 0, ScrubRanges: 1}, "ScrubIntervalMicros"},
		{"zero scrub ranges", SelfHealPolicy{ScrubIntervalMicros: 1, ScrubRanges: 0}, "ScrubRanges"},
	}
	cm := kernel.NewCostModel(arch.R3000)
	for _, c := range bad {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", c.name, err, c.want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EnableSelfHeal did not panic", c.name)
				}
			}()
			NewCluster(64, cm, DefaultReplicaConfig()).EnableSelfHeal(c.p)
		}()
	}
}

func TestBackupTransientKillRevivesMidShip(t *testing.T) {
	// Satellite of the rejoin work: a backup dies on receipt of an
	// in-flight ship frame and comes back inside the ack budget. The
	// retransmission backoff burns virtual time, the outage window
	// closes, the next retry's pump revives the node through its
	// restart hook, and the very op whose ship killed it still
	// acknowledges — with the lag drained to zero.
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
	if _, err := remote.Write(fd, []byte("before the kill")); err != nil {
		t.Fatal(err)
	}
	// A certain kill on the next ship frame; the 50 ms outage fits well
	// inside what 64 retries of capped backoff can bridge.
	k := cluster.SetBackupKillPlane(0, faultplane.CrashPolicy{
		OnRecv: 1, OutageMicros: 50_000, MaxCrashes: 1,
	})
	if err := remote.Close(fd); err != nil {
		t.Fatalf("op whose ship killed the backup did not ack: %v", err)
	}
	if c := k.Counts(); c.Crashes != 1 {
		t.Fatalf("kill schedule fired %d kills, want 1", c.Crashes)
	}
	// The next mutating op acknowledges with the backup back in the ack
	// set — no residual lag, no sequence damage, identical state.
	if err := remote.Mkdir("/d2"); err != nil {
		t.Fatalf("op after the revival did not ack: %v", err)
	}
	st := cluster.Stats()
	if st.ReplicationLag != 0 || st.BackupSeq != st.PrimarySeq {
		t.Errorf("backup at %d of %d (lag %d) after revival", st.BackupSeq, st.PrimarySeq, st.ReplicationLag)
	}
	if st.SeqViolations != 0 {
		t.Errorf("SeqViolations = %d, want 0", st.SeqViolations)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	if got, want := cluster.Backup(0).srv.CurrentFS().Fingerprint(), cluster.Primary().CurrentFS().Fingerprint(); got != want {
		t.Error("backup state diverged across the transient kill")
	}
}

func TestWALCorruptionQuarantinedAndRepaired(t *testing.T) {
	// The storage fault plane end to end: a backup revives to find a
	// record torn strictly mid-log. Recovery classifies it as
	// corruption, quarantines from the damage onward, and the node
	// re-enters the ack set at its rewound position; the primary's next
	// ship discovers the rewind (cursor correction) and re-delivers the
	// quarantined range — each record applied exactly once.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	cluster.SetDiskPlane(faultplane.DiskFaultPolicy{Seed: 9, TornRecord: 1, MaxFaults: 1})
	remote := cluster.NewClient()
	// Enough applied records that the backup's tail holds a mid-log
	// position to tear.
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e"} {
		if err := remote.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	before := cluster.Backup(0).AppliedSeq()
	if before < 2 {
		t.Fatalf("backup applied %d records, want a tail worth tearing", before)
	}
	k := cluster.SetBackupKillPlane(0, faultplane.CrashPolicy{
		OnRecv: 1, OutageMicros: 50_000, MaxCrashes: 1,
	})
	if err := remote.Mkdir("/f"); err != nil {
		t.Fatalf("op across the corrupting revival did not ack: %v", err)
	}
	if c := k.Counts(); c.Crashes != 1 {
		t.Fatalf("kill schedule fired %d kills, want 1", c.Crashes)
	}
	st := cluster.Stats()
	if st.Quarantined == 0 {
		t.Fatal("certain mid-log tear quarantined nothing")
	}
	if st.CursorCorrections == 0 {
		t.Error("quarantine rewound the backup but the primary never corrected its cursor")
	}
	if st.ReplicationLag != 0 || st.BackupSeq != st.PrimarySeq {
		t.Errorf("backup at %d of %d (lag %d) after repair", st.BackupSeq, st.PrimarySeq, st.ReplicationLag)
	}
	if st.SeqViolations != 0 || st.Reships != 0 {
		t.Errorf("repair left sequence anomalies: %+v", st)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	// Zero duplicate executions: the repaired backup's state is exactly
	// the primary's.
	if got, want := cluster.Backup(0).srv.CurrentFS().Fingerprint(), cluster.Primary().CurrentFS().Fingerprint(); got != want {
		t.Error("repaired backup state diverged from the primary")
	}
}

func TestStateTransferHealsCursorBelowFloor(t *testing.T) {
	// When a node loses so much that the primary's retained log no
	// longer reaches its position — here a quarantined snapshot resets
	// it to genesis while the primary has truncated its own tail into
	// snapshots — record shipping cannot help. The ship path must fall
	// back to chunked state transfer, install the snapshot whole, and
	// close the remaining gap by records.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	cluster.Primary().SnapshotEvery = 4 // frequent snapshots raise the ship floor
	remote := cluster.NewClient()
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"} {
		if err := remote.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	if cluster.Primary().wal.SnapSeq() == 0 {
		t.Fatal("primary never snapshotted; the floor cannot rise")
	}
	// The backup's storage rots wholesale: snapshot undecodable, log
	// abandoned, node back at genesis.
	b := cluster.Backup(0)
	b.srv.wal.QuarantineSnapshot()
	b.recoverLocal()
	applied := b.appliedSeq
	if applied != 0 {
		t.Fatalf("genesis reset left appliedSeq = %d", applied)
	}
	if err := remote.Mkdir("/i"); err != nil {
		t.Fatalf("op across the state transfer did not ack: %v", err)
	}
	st := cluster.Stats()
	if st.StateTransfers == 0 || st.SnapChunks == 0 {
		t.Fatalf("no state transfer fired: %+v", st)
	}
	if ws := b.srv.wal.Stats(); ws.Installed == 0 {
		t.Error("backup never installed the transferred snapshot")
	}
	if st.ReplicationLag != 0 || st.BackupSeq != st.PrimarySeq {
		t.Errorf("backup at %d of %d (lag %d) after state transfer", st.BackupSeq, st.PrimarySeq, st.ReplicationLag)
	}
	if st.SeqViolations != 0 {
		t.Errorf("SeqViolations = %d, want 0", st.SeqViolations)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	if got, want := b.srv.CurrentFS().Fingerprint(), cluster.Primary().CurrentFS().Fingerprint(); got != want {
		t.Error("transferred state diverged from the primary")
	}
}

func TestDeposedPrimaryDemotesAndRejoins(t *testing.T) {
	// The demotion path: the primary acknowledges ops its partitioned
	// backup never saw (a speculative tail), dies permanently, and the
	// backup promotes without them. When the deposed primary rejoins it
	// must discover its fencing on a rejected ship, discard exactly the
	// speculative records, and re-enter the cluster as a receiving
	// backup that converges on the new primary's history.
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	// Sub-microsecond rejoin delay: fault-free ops advance the shared
	// clock only by wire costs, so this makes the first post-failover
	// tick eligible to run the rejoin.
	cluster.EnableSelfHeal(SelfHealPolicy{
		RejoinDelayMicros: 1e-3, ScrubIntervalMicros: 1e12, ScrubRanges: 8,
	})
	remote := cluster.NewClient()
	if err := remote.Mkdir("/shared"); err != nil {
		t.Fatal(err)
	}
	// Partition the replication link totally: from here the primary's
	// appends are speculation only it holds.
	cluster.ReplLink(0).SetFaultPlane(faultplane.New(faultplane.Policy{Loss: 1}))
	for _, p := range []string{"/spec1", "/spec2"} {
		if err := remote.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	specTail := cluster.Primary().wal.LastSeq() - cluster.Backup(0).AppliedSeq()
	if specTail == 0 {
		t.Fatal("partition produced no speculative tail")
	}
	cluster.ReplLink(0).SetFaultPlane(nil) // the partition heals as the node dies
	cluster.KillPrimaryForever()
	if err := remote.Mkdir("/after1"); err != nil { // fails over and promotes
		t.Fatal(err)
	}
	if err := remote.Mkdir("/after2"); err != nil { // Tick: the rejoin delay has elapsed
		t.Fatal(err)
	}
	cluster.Quiesce()
	st := cluster.Stats()
	if st.Failovers != 1 || st.Rejoins != 1 {
		t.Fatalf("failovers=%d rejoins=%d, want 1 and 1", st.Failovers, st.Rejoins)
	}
	if st.FencedShips != 1 {
		t.Errorf("FencedShips = %d, want 1 (the probe the fencing is learned from)", st.FencedShips)
	}
	if st.Discarded != int(specTail) {
		t.Errorf("Discarded = %d, want the whole speculative tail %d", st.Discarded, specTail)
	}
	d := cluster.Demoted()
	if d == nil {
		t.Fatal("deposed primary never rejoined")
	}
	active := cluster.Backup(0).srv
	if got, want := d.AppliedSeq(), active.wal.LastSeq(); got != want {
		t.Errorf("demoted node applied %d of the new primary's %d", got, want)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	// The demoted node's state is the new primary's history: the
	// speculative paths are gone, the post-failover paths present.
	dfs := cluster.Primary().CurrentFS()
	if got, want := dfs.Fingerprint(), active.CurrentFS().Fingerprint(); got != want {
		t.Error("demoted state diverged from the new primary")
	}
	for _, p := range []string{"/spec1", "/spec2"} {
		if _, err := dfs.Stat(p); err == nil {
			t.Errorf("speculative path %s survived demotion", p)
		}
	}
	for _, p := range []string{"/shared", "/after1", "/after2"} {
		if _, err := dfs.Stat(p); err != nil {
			t.Errorf("replicated path %s missing on the demoted node: %v", p, err)
		}
	}
}

func TestScrubRepairsSilentDivergence(t *testing.T) {
	// The anti-entropy pass: a backup's state rots without any log
	// damage — exactly what sequence checks and checksums cannot see.
	// The scrubber compares per-range fingerprints, localises the
	// divergence, and repairs it by snapshot push.
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
	if _, err := remote.Write(fd, []byte("replicated payload")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Close(fd); err != nil {
		t.Fatal(err)
	}
	// Silent rot on the backup, behind the replication protocol's back.
	bfs := cluster.Backup(0).srv.CurrentFS()
	bfd, err := bfs.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bfs.Write(bfd, []byte("rotted")); err != nil {
		t.Fatal(err)
	}
	if err := bfs.Close(bfd); err != nil {
		t.Fatal(err)
	}
	if bfs.Fingerprint() == cluster.Primary().CurrentFS().Fingerprint() {
		t.Fatal("rot did not diverge the backup")
	}
	// Arm a near-immediate scrub — sub-microsecond, because fault-free
	// ops advance the shared clock only by wire costs. The tick runs at
	// the head of each call, so the first op advances the clock past
	// the interval and the second op's tick scrubs.
	cluster.EnableSelfHeal(SelfHealPolicy{
		RejoinDelayMicros: 1e12, ScrubIntervalMicros: 1e-3, ScrubRanges: 16,
	})
	if err := remote.Mkdir("/d2"); err != nil {
		t.Fatal(err)
	}
	if err := remote.Mkdir("/d3"); err != nil {
		t.Fatal(err)
	}
	st := cluster.Stats()
	if st.ScrubPasses == 0 {
		t.Fatal("scrub never ran")
	}
	if st.ScrubRepairs != 1 {
		t.Fatalf("ScrubRepairs = %d, want 1", st.ScrubRepairs)
	}
	if st.RepairedRanges < 1 || st.RepairedRanges >= 16 {
		t.Errorf("RepairedRanges = %d, want the divergence localised to a few ranges", st.RepairedRanges)
	}
	if st.StateTransfers != 1 {
		t.Errorf("StateTransfers = %d, want 1 (the repair push)", st.StateTransfers)
	}
	cluster.Quiesce()
	if got, want := cluster.Backup(0).srv.CurrentFS().Fingerprint(), cluster.Primary().CurrentFS().Fingerprint(); got != want {
		t.Error("scrub repair did not reconverge the backup")
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
}

// rejoinSoakOutcome bundles everything a rejoin soak must reproduce
// byte-for-byte across same-seed runs.
type rejoinSoakOutcome struct {
	fingerprints []string // active node first, then every receiver
	stats        Stats
	cluster      ClusterStats
	crashes      faultplane.CrashCounts
	kills        []faultplane.CrashCounts
	disk         faultplane.DiskCounts
	clock        float64
	events       []obs.Event
}

// rejoinSoak replays andrew-mini against a three-node replica set in
// which every node dies at least once: the primary on a kill-forever
// schedule (third crash permanent), each backup on its own seeded
// transient-kill schedule, with seeded at-rest damage waiting at every
// revival and the self-healing plane armed. It returns only after
// Quiesce has driven the cluster back to full replication factor.
func rejoinSoak(t *testing.T, cm *kernel.CostModel, seed int64, record bool) rejoinSoakOutcome {
	t.Helper()
	cfg := DefaultReplicaConfig()
	cfg.Backups = 2
	cluster := NewCluster(256, cm, cfg)
	cluster.EnableSelfHeal(SelfHealPolicy{
		RejoinDelayMicros: 5e5, ScrubIntervalMicros: 5e5, ScrubRanges: 16,
	})
	cluster.PrimaryLink().SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	crash := faultplane.NewCrash(faultplane.ChaosKill(seed), nil)
	cluster.SetCrashPlane(crash)
	kills := make([]*faultplane.CrashPlane, cfg.Backups)
	for i := 0; i < cfg.Backups; i++ {
		kills[i] = cluster.SetBackupKillPlane(i, faultplane.ChaosRejoin(seed+int64(i)+1))
	}
	disk := cluster.SetDiskPlane(faultplane.ChaosDisk(seed))
	remote := cluster.NewClient()
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(cluster.Clock())
		remote.SetRecorder(rec)
	}
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("rejoin soak (seed %d) failed: %v", seed, err)
	}
	cluster.Quiesce()
	if err := cluster.Audit(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	out := rejoinSoakOutcome{
		stats:   remote.Stats(),
		cluster: cluster.Stats(),
		crashes: crash.Counts(),
		disk:    disk.Counts(),
		clock:   cluster.Clock().Clock(),
	}
	for _, k := range kills {
		out.kills = append(out.kills, k.Counts())
	}
	out.fingerprints = append(out.fingerprints, cluster.ActiveFS().Fingerprint())
	for _, b := range cluster.receivers() {
		out.fingerprints = append(out.fingerprints, b.srv.CurrentFS().Fingerprint())
	}
	if rec != nil {
		out.events = rec.Events()
	}
	return out
}

func TestRejoinSoakEveryNodeDiesAndHeals(t *testing.T) {
	// The headline soak: over the run every node of the three-node
	// cluster dies at least once — the original primary for good, each
	// backup transiently — storage rots at revivals, and the self-healing
	// plane must still end the run at full replication factor with every
	// node byte-identical to the fault-free monolithic state.
	cm := kernel.NewCostModel(arch.R3000)
	want := cleanMonolithicFingerprint(t, cm)
	quarantinedAnywhere := false
	// Seeds 252 and 148 flip a bit in a reviving node's snapshot image
	// that still decodes as gob: one image named a missing inode and
	// panicked the rejoin's replay, the other lost an open descriptor.
	// The checksummed image refuses both flips, and the node heals by
	// state transfer.
	for _, seed := range []int64{1991, 42, 7, 252, 148} {
		out := rejoinSoak(t, cm, seed, false)
		if out.crashes.Crashes != 3 {
			t.Errorf("seed %d: primary crashed %d times, want 3 (the third permanent)", seed, out.crashes.Crashes)
		}
		for i, kc := range out.kills {
			if kc.Crashes == 0 {
				t.Errorf("seed %d: backup %d never died — the soak must kill every node", seed, i)
			}
		}
		if out.cluster.Failovers != 1 || out.cluster.Rejoins != 1 {
			t.Errorf("seed %d: failovers=%d rejoins=%d, want 1 and 1", seed, out.cluster.Failovers, out.cluster.Rejoins)
		}
		if out.cluster.FencedShips == 0 {
			t.Errorf("seed %d: the deposed primary never saw a fenced ship", seed)
		}
		// Full replication factor: all three nodes hold the fault-free
		// monolithic state.
		if len(out.fingerprints) != 3 {
			t.Fatalf("seed %d: %d nodes reported, want 3", seed, len(out.fingerprints))
		}
		for i, fp := range out.fingerprints {
			if fp != want {
				t.Errorf("seed %d: node %d diverged from the fault-free monolithic state", seed, i)
			}
		}
		if out.cluster.ReplicationLag != 0 {
			t.Errorf("seed %d: residual lag %d after Quiesce", seed, out.cluster.ReplicationLag)
		}
		if out.cluster.SeqViolations != 0 {
			t.Errorf("seed %d: %d sequence violations", seed, out.cluster.SeqViolations)
		}
		if out.stats.DegradedOps != 0 {
			t.Errorf("seed %d: %d ops degraded despite failover", seed, out.stats.DegradedOps)
		}
		if out.cluster.Quarantined > 0 {
			quarantinedAnywhere = true
		}
		t.Logf("seed %d: crashes=%d kills=%v disk=%+v corrections=%d transfers=%d quarantined=%d discarded=%d scrubs=%d repairs=%d lagOps=%d",
			seed, out.crashes.Crashes, out.kills, out.disk, out.cluster.CursorCorrections,
			out.cluster.StateTransfers, out.cluster.Quarantined, out.cluster.Discarded,
			out.cluster.ScrubPasses, out.cluster.ScrubRepairs, out.cluster.LagOps)
	}
	if !quarantinedAnywhere {
		t.Error("no seed exercised the quarantine path; the disk fault schedule is dead weight")
	}
}

func TestRejoinSoakIsBitReproducible(t *testing.T) {
	// Same seed, same kills, same tears, same repairs, same bytes: the
	// entire outcome — fingerprints, every counter surface, the virtual
	// clock, and the full event stream — must match between two runs.
	cm := kernel.NewCostModel(arch.R3000)
	o1 := rejoinSoak(t, cm, 1991, true)
	o2 := rejoinSoak(t, cm, 1991, true)
	if !reflect.DeepEqual(o1.fingerprints, o2.fingerprints) {
		t.Error("same seed produced different node states")
	}
	if o1.stats != o2.stats {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", o1.stats, o2.stats)
	}
	if o1.cluster != o2.cluster {
		t.Errorf("same seed produced different cluster stats:\n%+v\n%+v", o1.cluster, o2.cluster)
	}
	if o1.crashes != o2.crashes || !reflect.DeepEqual(o1.kills, o2.kills) || o1.disk != o2.disk {
		t.Error("same seed produced different fault schedules")
	}
	if o1.clock != o2.clock {
		t.Errorf("same seed produced different virtual clocks: %v vs %v", o1.clock, o2.clock)
	}
	if len(o1.events) == 0 || !reflect.DeepEqual(o1.events, o2.events) {
		t.Errorf("same seed produced different event streams (%d vs %d events)", len(o1.events), len(o2.events))
	}
	// The healing plane leaves its trace: rejoin and scrub spans are in
	// the stream.
	names := map[string]bool{}
	for _, e := range o1.events {
		names[e.Layer+"/"+e.Name] = true
	}
	for _, want := range []string{"cluster/rejoin", "cluster/scrub"} {
		if !names[want] {
			t.Errorf("event stream lacks %s", want)
		}
	}
}
