package fsserver

import (
	"bytes"
	"errors"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// localNet is the cross-address-space link the decomposed arrangement
// normally runs on (cf. NewRemote).
var localNet = ipc.NetworkConfig{Name: "local", BandwidthMbps: 1e6, PerPacketLatencyMicros: 0}

// cleanMonolithicFingerprint replays the script on the monolithic
// arrangement and returns the resulting file-system state digest.
func cleanMonolithicFingerprint(t *testing.T, cm *kernel.CostModel) string {
	t.Helper()
	clean := fs.New(256)
	if _, err := DefaultAndrewMini().Run(NewDirect(clean, cm)); err != nil {
		t.Fatalf("fault-free monolithic run failed: %v", err)
	}
	return clean.Fingerprint()
}

// chaosRun replays the script on the decomposed arrangement under the
// seeded chaos policy and returns the final state digest plus stats.
func chaosRun(t *testing.T, cm *kernel.CostModel, seed int64) (string, Stats, faultplane.Counts, float64) {
	t.Helper()
	link := wire.NewLink(localNet)
	plane := faultplane.New(faultplane.Chaos(seed))
	link.SetFaultPlane(plane)
	fsys := fs.New(256)
	remote := NewRemoteOnLink(fsys, cm, link)
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("chaos run (seed %d) failed: %v", seed, err)
	}
	if fsys.OpenFDs() != 0 {
		t.Errorf("chaos run leaked %d descriptors", fsys.OpenFDs())
	}
	return fsys.Fingerprint(), remote.Stats(), plane.Counts(), link.Clock()
}

func TestChaosSoakExactlyOnceEffects(t *testing.T) {
	// ≥20% combined loss/duplication/reordering (faultplane.Chaos), a
	// full andrew-mini replay: the decomposed file system must end
	// byte-identical to the fault-free monolithic run — no double-
	// applied writes, no lost acknowledged ops.
	cm := kernel.NewCostModel(arch.R3000)
	want := cleanMonolithicFingerprint(t, cm)
	for _, seed := range []int64{1991, 42, 7} {
		got, st, counts, _ := chaosRun(t, cm, seed)
		if got != want {
			t.Errorf("seed %d: decomposed state diverged from fault-free monolithic state", seed)
		}
		if counts.Dropped == 0 || counts.Duplicated == 0 || counts.Reordered == 0 {
			t.Errorf("seed %d: fault plane injected too little: %+v", seed, counts)
		}
		if st.Wire.Retries == 0 || st.Wire.DuplicatesSuppressed == 0 {
			t.Errorf("seed %d: transport saw no retransmission traffic: %+v", seed, st.Wire)
		}
		if st.DegradedOps != 0 {
			t.Errorf("seed %d: %d ops degraded despite generous retry budget", seed, st.DegradedOps)
		}
	}
}

func TestChaosSoakIsBitReproducible(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	fp1, st1, counts1, clock1 := chaosRun(t, cm, 1991)
	fp2, st2, counts2, clock2 := chaosRun(t, cm, 1991)
	if fp1 != fp2 {
		t.Error("same seed produced different file-system states")
	}
	if st1 != st2 {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", st1, st2)
	}
	if counts1 != counts2 {
		t.Errorf("same seed produced different fault counts:\n%+v\n%+v", counts1, counts2)
	}
	if clock1 != clock2 {
		t.Errorf("same seed produced different virtual clocks: %v vs %v", clock1, clock2)
	}
}

func TestChaosSoakParallelLinks(t *testing.T) {
	// Independent decomposed services under independent fault planes,
	// driven concurrently — the -race configuration of the soak. Each
	// goroutine owns its whole stack, link and plane included, and
	// separate stacks share nothing (the single-ownership contract).
	cm := kernel.NewCostModel(arch.R3000)
	want := cleanMonolithicFingerprint(t, cm)
	type result struct {
		seed int64
		fp   string
		err  error
	}
	seeds := []int64{1, 2, 3, 4}
	results := make(chan result, len(seeds))
	for _, seed := range seeds {
		go func(seed int64) {
			link := wire.NewLink(localNet)
			link.SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
			fsys := fs.New(256)
			remote := NewRemoteOnLink(fsys, cm, link)
			_, err := DefaultAndrewMini().Run(remote)
			results <- result{seed, fsys.Fingerprint(), err}
		}(seed)
	}
	for range seeds {
		r := <-results
		if r.err != nil {
			t.Errorf("seed %d: %v", r.seed, r.err)
			continue
		}
		if r.fp != want {
			t.Errorf("seed %d: state diverged from fault-free monolithic run", r.seed)
		}
	}
}

func TestExhaustedBudgetDegradesToErrUnavailable(t *testing.T) {
	// Under total loss with a tiny budget the service must fail fast
	// with the typed degradation error and count the degraded op — not
	// wedge or return an anonymous transport error.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	link.SetFaultPlane(faultplane.New(faultplane.Policy{Seed: 5, Loss: 1.0}))
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	remote.Tune(2, 0)
	_, err := remote.Open("/anything")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if st := remote.Stats(); st.DegradedOps != 1 {
		t.Errorf("degraded ops = %d, want 1", st.DegradedOps)
	}

	// Deadline budget, same typed signal.
	link2 := wire.NewLink(ipc.Ethernet10)
	link2.SetFaultPlane(faultplane.New(faultplane.Policy{Seed: 5, Loss: 1.0}))
	remote2 := NewRemoteOnLink(fs.New(64), cm, link2)
	remote2.Tune(1000, 2000)
	_, err = remote2.Open("/anything")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("deadline case: err = %v, want ErrUnavailable", err)
	}
	if st := remote2.Stats(); st.DegradedOps != 1 || st.Wire.DeadlineExceeded != 1 {
		t.Errorf("deadline case: stats = %+v", st)
	}
}

func TestDecomposedWriteSurvivesDroppedReply(t *testing.T) {
	// The at-most-once regression at the service layer: the reply to a
	// non-idempotent Write is lost, the client retransmits, and the
	// server must answer from its reply cache instead of appending the
	// data a second time.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	fsys := fs.New(64)
	remote := NewRemoteOnLink(fsys, cm, link)

	fd, err := remote.Create("/f") // frames 1 (call) + 2 (reply)
	if err != nil {
		t.Fatal(err)
	}
	faults := &faultplane.Script{}
	faults.Drop(4) // the Write reply
	link.SetFaultPlane(faults)
	if _, err := remote.Write(fd, []byte("exactly-once")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Close(fd); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("exactly-once")) {
		t.Errorf("file = %q; a retransmitted write re-executed", data)
	}
	st := remote.Stats()
	if st.Wire.Retries != 1 || st.Wire.DuplicatesSuppressed != 1 {
		t.Errorf("wire stats = %+v, want 1 retry answered from the reply cache", st.Wire)
	}
}

func TestDecomposedWriteSurvivesCorruptCall(t *testing.T) {
	// A corrupted Write call is rejected by the server's checksum; the
	// retransmission carries the operation, which must apply once.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	fsys := fs.New(64)
	remote := NewRemoteOnLink(fsys, cm, link)

	fd, err := remote.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	faults := &faultplane.Script{}
	faults.Corrupt(3) // the Write call
	link.SetFaultPlane(faults)
	if _, err := remote.Write(fd, []byte("checksummed")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Close(fd); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("checksummed")) {
		t.Errorf("file = %q", data)
	}
	st := remote.Stats()
	if n := remote.server.Wire.Stats().BadFrames; n != 1 {
		t.Errorf("server rejected %d frames, want 1", n)
	}
	if st.Wire.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Wire.Retries)
	}
}
