package fsserver

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// soakScript sizes one client's rooted andrew-mini replay so the
// four-client race-enabled soak stays fast in CI while still issuing a
// few hundred operations per client.
func soakScript(client int) AndrewMini {
	return AndrewMini{
		Dirs:        4,
		FilesPerDir: 5,
		FileBytes:   1500,
		Seed:        1991 + int64(client),
		Root:        fmt.Sprintf("/c%d", client),
	}
}

func TestConcurrentClientsChaosSoak(t *testing.T) {
	// The soak at the service layer: four Remotes — one wire client
	// each — share one link, one server, and one file system, each
	// replaying its script in a disjoint subtree, interleaved one op per
	// turn, while the seeded chaos policy disrupts ≥20% of all frames on
	// the shared medium. The combined final state must be byte-identical
	// to the same four scripts replayed sequentially on the fault-free
	// monolithic arrangement: no lost acknowledged ops, no double-applied
	// writes.
	const nClients = 4
	cm := kernel.NewCostModel(arch.R3000)

	clean := fs.New(256)
	direct := NewDirect(clean, cm)
	for i := 0; i < nClients; i++ {
		if _, err := soakScript(i).Run(direct); err != nil {
			t.Fatalf("fault-free monolithic run, client %d: %v", i, err)
		}
	}
	want := clean.Fingerprint()

	link := wire.NewLink(localNet)
	plane := faultplane.New(faultplane.Chaos(1991))
	link.SetFaultPlane(plane)
	fsys := fs.New(256)
	base := NewRemoteOnLink(fsys, cm, link)
	remotes := make([]*Remote, nClients)
	scripts := make([]AndrewMini, nClients)
	svcs := make([]Service, nClients)
	for i := range remotes {
		if i == 0 {
			remotes[i] = base
		} else {
			remotes[i] = base.NewPeer()
		}
		remotes[i].Tune(64, 0)
		scripts[i], svcs[i] = soakScript(i), remotes[i]
	}
	if err := Interleave(scripts, svcs); err != nil {
		t.Fatal(err)
	}

	if got := fsys.Fingerprint(); got != want {
		t.Errorf("concurrent decomposed state diverged from sequential fault-free monolithic state")
	}
	if fsys.OpenFDs() != 0 {
		t.Errorf("soak leaked %d descriptors", fsys.OpenFDs())
	}
	counts := plane.Counts()
	if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Reordered == 0 || counts.Corrupted == 0 {
		t.Errorf("fault plane injected too little on the shared medium: %+v", counts)
	}
	degraded, retries := 0, 0
	for _, r := range remotes {
		st := r.Stats()
		degraded += st.DegradedOps
		retries += st.Wire.Retries
	}
	if degraded != 0 {
		t.Errorf("%d ops degraded despite the generous retry budget", degraded)
	}
	if retries == 0 || base.Stats().Wire.DuplicatesSuppressed == 0 {
		t.Errorf("no retransmission traffic under chaos: retries=%d, server=%+v",
			retries, base.server.Wire.Stats())
	}
}

func TestPeersShareServerSideCounters(t *testing.T) {
	// Each peer's Stats must report its own client-side transport
	// counters but the shared server's aggregate counters.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	fsys := fs.New(64)
	r1 := NewRemoteOnLink(fsys, cm, link)
	r2 := r1.NewPeer()

	if err := r1.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	s1, s2 := r1.Stats(), r2.Stats()
	if s1.Ops != 1 || s2.Ops != 1 {
		t.Errorf("per-peer ops = %d, %d, want 1 each", s1.Ops, s2.Ops)
	}
	if s1.Wire.Served != 2 || s2.Wire.Served != 2 {
		t.Errorf("server-side served = %d, %d, want the shared aggregate 2", s1.Wire.Served, s2.Wire.Served)
	}
}

func TestConcurrentShipsToOneBackup(t *testing.T) {
	// A backup decodes every ship into one record slice it reuses, and
	// several callers may drive its replication server. Four extra
	// shippers re-send records the backup already holds, interleaved
	// round-robin with the primary's own writes and ships: each re-sent
	// record is skipped exactly once per call, and the backup ends level
	// with the primary, in the monolith's state.
	const shippers, calls = 4, 25
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()
	mono := fs.New(64)
	mkdir := func(path string) {
		t.Helper()
		if err := remote.Mkdir(path); err != nil {
			t.Fatal(err)
		}
		if err := mono.Mkdir(path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		mkdir(fmt.Sprintf("/a%d", i))
	}
	held := cluster.Primary().wal.RecordsSince(0)
	batch, err := fs.EncodeRecords(held)
	if err != nil {
		t.Fatal(err)
	}
	epoch := cluster.Primary().Wire.Epoch()

	ships := make([]*wire.Client, shippers)
	for g := range ships {
		ships[g] = wire.NewClient(cluster.ReplLink(0), wire.A)
	}
	// Each round re-ships once from every shipper, and the first eight
	// rounds each end with one more primary write.
	for k := 0; k < calls; k++ {
		for g, ship := range ships {
			out, err := ship.Call(cluster.Backup(0).Repl, ProcShip, epoch, batch)
			if err != nil {
				t.Fatalf("shipper %d: %v", g, err)
			}
			if seq := out[0].(uint64); seq < uint64(len(held)) {
				t.Fatalf("shipper %d: re-ship acknowledged %d, below the %d records held", g, seq, len(held))
			}
		}
		if k < 8 {
			mkdir(fmt.Sprintf("/b%d", k))
		}
	}

	st := cluster.Stats()
	if got := cluster.Backup(0).AppliedSeq(); got != st.PrimarySeq {
		t.Errorf("backup applied %d of %d", got, st.PrimarySeq)
	}
	if want := shippers * calls * len(held); st.Reships != want || st.SeqViolations != 0 {
		t.Errorf("Reships %d (want %d), SeqViolations %d (want 0)", st.Reships, want, st.SeqViolations)
	}
	if err := cluster.Audit(); err != nil {
		t.Error(err)
	}
	want := mono.Fingerprint()
	for i, fp := range cluster.NodeFingerprints() {
		if fp != want {
			t.Errorf("node %d diverged from the monolithic state", i)
		}
	}
}

// mkdirLog records which script issued each Mkdir.
type mkdirLog struct {
	Service
	id  int
	log *[]int
}

func (m mkdirLog) Mkdir(path string) error {
	*m.log = append(*m.log, m.id)
	return m.Service.Mkdir(path)
}

func TestInterleaveRoundRobin(t *testing.T) {
	// Scripts take turns one service op at a time, round-robin in index
	// order. Scripts 0 and 2 have the same shape, so their five Mkdirs
	// (root, src, two dirs, copy) line up turn for turn; script 1 fails
	// on its first op and drops out of the rotation, while the others
	// run to the end in the state a sequential replay leaves.
	cm := kernel.NewCostModel(arch.R3000)
	script := func(i int) AndrewMini {
		return AndrewMini{Dirs: 2, FilesPerDir: 2, FileBytes: 100, Seed: int64(i), Root: fmt.Sprintf("/c%d", i)}
	}
	scripts := []AndrewMini{script(0), script(1), script(2)}
	scripts[1].Root = "/missing/c1"
	fsys := fs.New(64)
	direct := NewDirect(fsys, cm)
	var log []int
	svcs := make([]Service, len(scripts))
	for i := range svcs {
		svcs[i] = mkdirLog{Service: direct, id: i, log: &log}
	}
	err := Interleave(scripts, svcs)
	if err == nil || !strings.Contains(err.Error(), "client 1:") || strings.Contains(err.Error(), "client 0:") {
		t.Fatalf("err = %v, want client 1's failure alone", err)
	}
	if want := []int{0, 1, 2, 0, 2, 0, 2, 0, 2, 0, 2}; !reflect.DeepEqual(log, want) {
		t.Errorf("Mkdir order %v, want %v", log, want)
	}
	clean := fs.New(64)
	seq := NewDirect(clean, cm)
	for _, i := range []int{0, 2} {
		if _, err := scripts[i].Run(seq); err != nil {
			t.Fatal(err)
		}
	}
	if fsys.Fingerprint() != clean.Fingerprint() {
		t.Error("interleaved state diverged from the sequential replay")
	}
}
