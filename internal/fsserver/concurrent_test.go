package fsserver

import (
	"fmt"
	"sync"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// soakScript sizes one client's rooted andrew-mini replay so the
// four-way race-enabled soak stays fast in CI while still issuing a few
// hundred operations per client.
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
	// The tentpole soak at the service layer: four concurrent Remotes —
	// one wire client each — share one link, one server, and one file
	// system, each replaying its script in a disjoint subtree while the
	// seeded chaos policy disrupts ≥20% of all frames on the shared
	// medium. The combined final state must be byte-identical to the
	// same four scripts replayed sequentially on the fault-free
	// monolithic arrangement: no lost acknowledged ops, no double-applied
	// writes, regardless of how the four call streams interleave.
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
	for i := range remotes {
		if i == 0 {
			remotes[i] = base
		} else {
			remotes[i] = base.NewPeer()
		}
		remotes[i].Tune(64, 0)
	}

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for i, r := range remotes {
		wg.Add(1)
		go func(i int, r *Remote) {
			defer wg.Done()
			_, errs[i] = soakScript(i).Run(r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
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
	// A backup decodes every ship into one record slice it reuses, under
	// its lock, because several callers may drive its replication server
	// at once. Four extra shippers re-send records the backup already
	// holds while the primary keeps writing and shipping: each re-sent
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

	var wg sync.WaitGroup
	errs := make([]error, shippers)
	for g := 0; g < shippers; g++ {
		ship := wire.NewClient(cluster.ReplLink(0), wire.A)
		wg.Add(1)
		go func(g int, ship *wire.Client) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				out, err := ship.Call(cluster.Backup(0).Repl, ProcShip, epoch, batch)
				if err != nil {
					errs[g] = err
					return
				}
				if seq := out[0].(uint64); seq < uint64(len(held)) {
					errs[g] = fmt.Errorf("re-ship acknowledged %d, below the %d records held", seq, len(held))
					return
				}
			}
		}(g, ship)
	}
	for i := 0; i < 8; i++ {
		mkdir(fmt.Sprintf("/b%d", i))
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("shipper %d: %v", g, err)
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
