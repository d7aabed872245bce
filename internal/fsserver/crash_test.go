package fsserver

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
)

// scriptedCrash fires at chosen draws of one crash window, for
// deterministic single-window experiments (the seeded schedules are
// exercised by the soak).
type scriptedCrash struct {
	point faultplane.CrashPoint
	fire  map[int]bool
	n     int
}

func (c *scriptedCrash) CrashNow(p faultplane.CrashPoint) bool {
	if p != c.point {
		return false
	}
	c.n++
	return c.fire[c.n]
}

// crashRun replays the script on the decomposed arrangement under the
// seeded chaos policy plus the seeded crash schedule, returning the
// final state digest (read through the server — recovery swaps the FS)
// and everything needed to assert byte-reproducibility.
func crashRun(t *testing.T, cm *kernel.CostModel, seed int64, record bool) (string, Stats, faultplane.CrashCounts, float64, []obs.Event) {
	t.Helper()
	link := wire.NewLink(localNet)
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	remote := NewRemoteOnLink(fs.New(256), cm, link)
	crash := faultplane.NewCrash(faultplane.ChaosCrash(seed), nil)
	remote.SetCrashPlane(crash)
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(link)
		remote.SetRecorder(rec)
	}
	if _, err := DefaultAndrewMini().Run(remote); err != nil {
		t.Fatalf("crash soak (seed %d) failed: %v", seed, err)
	}
	final := remote.server.CurrentFS()
	if final.OpenFDs() != 0 {
		t.Errorf("crash soak (seed %d) leaked %d descriptors", seed, final.OpenFDs())
	}
	var events []obs.Event
	if rec != nil {
		events = rec.Events()
	}
	return final.Fingerprint(), remote.Stats(), crash.Counts(), link.Clock(), events
}

func TestCrashSoakConvergesToMonolithic(t *testing.T) {
	// Chaos faults (≥20% combined disruption) plus periodic server
	// crashes — including deaths between WAL append and reply — and the
	// decomposed file system must still end byte-identical to the
	// fault-free monolithic run.
	cm := kernel.NewCostModel(arch.R3000)
	want := cleanMonolithicFingerprint(t, cm)
	for _, seed := range []int64{1991, 42, 7} {
		got, st, cc, _, _ := crashRun(t, cm, seed, false)
		if got != want {
			t.Errorf("seed %d: crashed-and-recovered state diverged from fault-free monolithic state", seed)
		}
		if cc.Crashes == 0 {
			t.Errorf("seed %d: crash schedule never fired: %+v", seed, cc)
		}
		if st.Wire.Crashes != cc.Crashes {
			t.Errorf("seed %d: Wire.Crashes = %d, plane counted %d", seed, st.Wire.Crashes, cc.Crashes)
		}
		if st.Recoveries != cc.Crashes {
			t.Errorf("seed %d: %d crashes but %d recoveries", seed, cc.Crashes, st.Recoveries)
		}
		if st.RecoveryReplayedOps == 0 {
			t.Errorf("seed %d: recoveries replayed nothing from the WAL", seed)
		}
		if st.DegradedOps != 0 {
			t.Errorf("seed %d: %d ops degraded despite the retry budget", seed, st.DegradedOps)
		}
		t.Logf("seed %d: crashes=%d (recv=%d pre-apply=%d pre-reply=%d) replayed=%d sessions=%d logDups=%d",
			seed, cc.Crashes, cc.OnRecv, cc.PreApply, cc.PreReply,
			st.RecoveryReplayedOps, st.Wire.SessionsReestablished, st.Wire.LogDuplicates)
	}
}

func TestCrashSoakIsBitReproducible(t *testing.T) {
	// Same seed, same crashes, same recoveries, same bytes: fingerprint,
	// stats, crash counts, virtual clock, and the full observability
	// event stream must all match between two runs.
	cm := kernel.NewCostModel(arch.R3000)
	fp1, st1, cc1, clock1, ev1 := crashRun(t, cm, 1991, true)
	fp2, st2, cc2, clock2, ev2 := crashRun(t, cm, 1991, true)
	if fp1 != fp2 {
		t.Error("same seed produced different file-system states")
	}
	if st1 != st2 {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", st1, st2)
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

func TestPreReplyCrashDoesNotDoubleApply(t *testing.T) {
	// The classic hazard: the write is logged and applied, the server
	// dies before the reply leaves. The retransmission must be answered
	// from the WAL by the restarted server — the write applies once.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	// Draws of the pre-reply window: one per executed call.
	// mkdir=1, create=2, write=3 — fire on the write.
	remote.SetCrashPlane(&scriptedCrash{point: faultplane.CrashPreReply, fire: map[int]bool{3: true}})

	if err := remote.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := remote.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("exactly once across the crash")
	n, err := remote.Write(fd, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write across crash: n=%d err=%v", n, err)
	}
	got, err := remote.server.CurrentFS().ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file = %q (err %v), want the payload exactly once", got, err)
	}
	st := remote.Stats()
	if st.Wire.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1 and 1", st.Wire.Crashes, st.Recoveries)
	}
	if st.RecoveryReplayedOps != 3 {
		t.Errorf("replayed = %d, want 3 (mkdir, create, write)", st.RecoveryReplayedOps)
	}
	if st.Wire.LogDuplicates != 1 {
		t.Errorf("LogDuplicates = %d, want 1 (retransmit answered from the WAL)", st.Wire.LogDuplicates)
	}
	if st.Wire.SessionsReestablished != 1 {
		t.Errorf("SessionsReestablished = %d, want 1", st.Wire.SessionsReestablished)
	}
}

func TestPreApplyCrashReplaysLoggedOp(t *testing.T) {
	// The server dies after the WAL append, before the apply. The op is
	// durable but unapplied; recovery replays it, and the retransmission
	// is answered from the replayed session — still exactly once.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	// Draws of the pre-apply window: one per logged op.
	remote.SetCrashPlane(&scriptedCrash{point: faultplane.CrashPreApply, fire: map[int]bool{3: true}})

	if err := remote.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	fd, err := remote.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("logged, unapplied, replayed")
	if _, err := remote.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	got, err := remote.server.CurrentFS().ReadFile("/d/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file = %q (err %v), want the payload exactly once", got, err)
	}
	st := remote.Stats()
	if st.Recoveries != 1 || st.RecoveryReplayedOps != 3 {
		t.Errorf("recoveries=%d replayed=%d, want 1 and 3", st.Recoveries, st.RecoveryReplayedOps)
	}
	if st.Wire.LogDuplicates != 1 {
		t.Errorf("LogDuplicates = %d, want 1", st.Wire.LogDuplicates)
	}
}

// resendLastWrite hand-crafts a retransmission of r's last Write call
// (call IDs are sequential per client) and pumps the server once.
func resendLastWrite(t *testing.T, r *Remote, callID uint32, fd int, payload []byte) {
	t.Helper()
	body := wire.AppendBytes(wire.AppendInt64(nil, int64(fd)), payload)
	frame, err := wire.Encode(wire.Header{
		Kind: wire.KindCall, CallID: callID, ProcID: ProcWrite, ClientID: r.fo.ClientID(),
	}, body)
	if err != nil {
		t.Fatal(err)
	}
	r.link.Send(wire.A, frame)
	r.server.Wire.Poll()
}

// expectReplayedReply asserts that exactly one regenerated reply for
// callID sits in r's receive queue, carrying the expected epoch.
func expectReplayedReply(t *testing.T, r *Remote, callID, wantEpoch uint32) {
	t.Helper()
	frame, err := r.link.RecvClient(wire.A, r.fo.ClientID())
	if err != nil {
		t.Fatalf("no reply queued for the retransmitted call: %v", err)
	}
	h, _, err := wire.Decode(frame)
	if err != nil {
		t.Fatalf("regenerated reply undecodable: %v", err)
	}
	if h.CallID != callID || h.Epoch != wantEpoch {
		t.Errorf("reply call=%d epoch=%d, want call=%d epoch=%d", h.CallID, h.Epoch, callID, wantEpoch)
	}
}

func TestEvictedRetransmitServedFromWALLive(t *testing.T) {
	// LRU eviction narrows the reply cache's at-most-once window; the
	// WAL heals it without any crash: a second client's traffic evicts
	// the first client's entry from a capacity-one cache, and the
	// first client's retransmitted write must still not re-execute.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	r1 := NewRemoteOnLink(fs.New(64), cm, link)
	r1.server.Wire.ConfigureReplyCache(1)

	fd, err := r1.Create("/f") // call 1
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("written once")
	if _, err := r1.Write(fd, payload); err != nil { // call 2
		t.Fatal(err)
	}
	r2 := r1.NewPeer()
	if _, err := r2.Stat("/f"); err != nil { // evicts r1's cache entry
		t.Fatal(err)
	}
	if ev := r1.server.Wire.Stats().RepliesEvicted; ev == 0 {
		t.Fatal("capacity-one cache evicted nothing; the test is not exercising eviction")
	}
	resendLastWrite(t, r1, 2, fd, payload)
	got, err := r1.server.CurrentFS().ReadFile("/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file = %q (err %v), want the payload exactly once", got, err)
	}
	st := r1.server.Wire.Stats()
	if st.LogDuplicates != 1 {
		t.Errorf("LogDuplicates = %d, want 1 (evicted retransmit answered from the WAL)", st.LogDuplicates)
	}
	expectReplayedReply(t, r1, 2, 1)
}

func TestEvictedRetransmitAcrossRestartServedFromWAL(t *testing.T) {
	// Eviction and a crash compound: the entry is evicted, then the
	// whole cache dies with the server. The restarted server must
	// answer the retransmitted write from the WAL session table — one
	// execution total, reply stamped with the new epoch.
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	r1 := NewRemoteOnLink(fs.New(64), cm, link)
	r1.server.Wire.ConfigureReplyCache(1)

	fd, err := r1.Create("/f") // call 1
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives eviction and restart")
	if _, err := r1.Write(fd, payload); err != nil { // call 2
		t.Fatal(err)
	}
	r2 := r1.NewPeer()
	if _, err := r2.Stat("/f"); err != nil {
		t.Fatal(err)
	}
	r1.Crash()
	resendLastWrite(t, r1, 2, fd, payload) // Poll restarts the server first
	got, err := r1.server.CurrentFS().ReadFile("/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file = %q (err %v), want the payload exactly once", got, err)
	}
	st := r1.Stats()
	if st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	if st.Wire.LogDuplicates != 1 {
		t.Errorf("LogDuplicates = %d, want 1", st.Wire.LogDuplicates)
	}
	expectReplayedReply(t, r1, 2, 2)
}

func TestUntypedTransportFailuresBecomeErrUnavailable(t *testing.T) {
	// An oversize write can never be framed: the transport fails before
	// anything is sent. That failure must surface as the same typed
	// ErrUnavailable (and degraded-op count) as an exhausted budget, not
	// as a raw codec error.
	cm := kernel.NewCostModel(arch.R3000)
	remote := NewRemoteOnLink(fs.New(64), cm, wire.NewLink(localNet))
	fd, err := remote.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Write(fd, make([]byte, 80<<10)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("oversize write returned %v, want ErrUnavailable", err)
	}
	if got := remote.Stats().DegradedOps; got != 1 {
		t.Errorf("DegradedOps = %d, want 1", got)
	}
	// Server-side failures keep their own type: they are the operation
	// failing, not the transport.
	if _, err := remote.Open("/does-not-exist"); !errors.Is(err, ErrRemote) {
		t.Errorf("remote fs error returned %v, want ErrRemote", err)
	}
}
