package fsserver

import (
	"errors"
	"fmt"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// shedRemote builds a decomposed arrangement on an Ethernet-class link
// (nonzero per-frame charge) with deadline-aware shedding armed — the
// harness every overload test starts from. An op issued with
// expireSoon gets its expiry stamped one microsecond ahead: the client
// pre-send check passes, the frame's own wire charge pushes the clock
// past the expiry, and the server sheds it — a deterministic
// server-side shed through the normal client path.
func shedRemote(t *testing.T) (*Remote, *wire.Link) {
	t.Helper()
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(ipc.Ethernet10)
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	remote.server.Wire.SetShedExpired(true)
	return remote, link
}

func expireSoon(r *Remote, link *wire.Link) {
	r.SetExpiry(link.Clock() + 1)
}

// TestOverloadErrorSplit: a shed op surfaces as the typed ErrOverloaded
// with its own counter, a transport-exhausted op stays ErrUnavailable —
// the two failure classes never conflate.
func TestOverloadErrorSplit(t *testing.T) {
	remote, link := shedRemote(t)

	expireSoon(remote, link)
	err := remote.Mkdir("/shed")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed op err = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrDegraded) {
		t.Fatalf("shed op err = %v leaked into another class", err)
	}
	if _, err := remote.server.CurrentFS().Stat("/shed"); err == nil {
		t.Error("shed op executed: /shed exists")
	}

	// A lost frame with no retries left is the transport failing — the
	// old catch-all, now strictly for non-overload failures.
	remote.SetExpiry(0)
	remote.Tune(0, 0)
	faults := &faultplane.Script{}
	faults.Drop(link.Frames() + 1)
	link.SetFaultPlane(faults)
	err = remote.Mkdir("/lost")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("lost op err = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("lost op err = %v conflated with overload", err)
	}

	st := remote.Stats()
	if st.OverloadedOps != 1 || st.DegradedOps != 1 {
		t.Errorf("overloaded = %d degraded = %d, want 1 and 1", st.OverloadedOps, st.DegradedOps)
	}
	if st.Wire.ShedExpired != 1 || st.Wire.ShedLocal != 1 {
		t.Errorf("wire shedExpired = %d shedLocal = %d, want 1 and 1",
			st.Wire.ShedExpired, st.Wire.ShedLocal)
	}
}

// TestBreakerFastFailsAndRecovers: consecutive overloads trip the
// breaker; while open, ops fail fast as ErrDegraded with zero wire
// traffic; after the seeded cooldown the probe goes out and a healthy
// answer closes the breaker.
func TestBreakerFastFailsAndRecovers(t *testing.T) {
	remote, link := shedRemote(t)
	remote.EnableBreaker(2, 10_000)

	for i := 0; i < 2; i++ {
		expireSoon(remote, link)
		if err := remote.Mkdir(fmt.Sprintf("/m%d", i)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("op %d err = %v, want ErrOverloaded", i, err)
		}
	}

	// Tripped: the next op must fail locally — no frame leaves.
	remote.SetExpiry(0)
	frames := link.Frames()
	err := remote.Mkdir("/fast")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("open-breaker err = %v, want ErrDegraded", err)
	}
	if link.Frames() != frames {
		t.Errorf("breaker open yet %d frames hit the wire", link.Frames()-frames)
	}
	st := remote.Stats()
	if st.BreakerFastFails != 1 || st.BreakerOpens != 1 || st.OverloadedOps != 2 {
		t.Errorf("fastFails = %d opens = %d overloaded = %d, want 1, 1, 2",
			st.BreakerFastFails, st.BreakerOpens, st.OverloadedOps)
	}

	// Past the worst-case cooldown (base × 1.5) the probe is admitted;
	// the service is healthy again, so the probe closes the breaker.
	link.AdvanceClock(15_001)
	if err := remote.Mkdir("/probe"); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if err := remote.Mkdir("/after"); err != nil {
		t.Fatalf("post-recovery op failed: %v", err)
	}
	if st := remote.Stats(); st.BreakerFastFails != 1 {
		t.Errorf("fastFails grew to %d after recovery, want 1", st.BreakerFastFails)
	}
}

// TestBreakerProbeReopens: a probe that comes back shed re-opens the
// breaker for a fresh cooldown instead of letting traffic through.
func TestBreakerProbeReopens(t *testing.T) {
	remote, link := shedRemote(t)
	remote.EnableBreaker(1, 10_000)

	expireSoon(remote, link)
	if err := remote.Mkdir("/m"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	link.AdvanceClock(15_001)
	// The probe goes out — and is shed too (still "overloaded").
	expireSoon(remote, link)
	if err := remote.Mkdir("/m2"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe err = %v, want ErrOverloaded", err)
	}
	// Re-opened: the very next op fails fast again.
	remote.SetExpiry(0)
	if err := remote.Mkdir("/m3"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err after failed probe = %v, want ErrDegraded", err)
	}
	if st := remote.Stats(); st.BreakerOpens != 2 {
		t.Errorf("breaker opens = %d, want 2", st.BreakerOpens)
	}
}

// TestShedRetransmitAcrossCrashRecovery: a shed call leaves no
// at-most-once record anywhere — reply cache or WAL — so when the same
// call ID is retransmitted (with a fresh deadline stamp) after the
// server crashes and recovers, the recovered server executes it as a
// fresh call, exactly once.
func TestShedRetransmitAcrossCrashRecovery(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(localNet)
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	remote.server.Wire.SetShedExpired(true)

	if err := remote.Mkdir("/d"); err != nil { // call 1: executed and logged
		t.Fatal(err)
	}
	link.AdvanceClock(100)

	// Call 2, hand-crafted with an already-expired deadline: shed.
	payload := wire.AppendString(nil, "/d/shed")
	expired, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: 2, ProcID: ProcMkdir, ClientID: remote.fo.ClientID(), Expiry: 1}, payload)
	if err != nil {
		t.Fatal(err)
	}
	link.Send(wire.A, expired)
	remote.server.Wire.Poll()
	if _, err := remote.server.CurrentFS().Stat("/d/shed"); err == nil {
		t.Fatal("shed op executed before the crash")
	}
	if st := remote.server.Wire.Stats(); st.ShedExpired != 1 {
		t.Fatalf("shedExpired = %d, want 1", st.ShedExpired)
	}
	// Drain the reject so the queue holds nothing for call 2.
	for {
		if _, err := link.RecvClient(wire.A, remote.fo.ClientID()); err != nil {
			break
		}
	}

	remote.server.Wire.ForceCrash()

	// The caller re-issues call 2 with a fresh stamp (re-issuing is
	// when deadlines are re-derived). The recovering server replays the
	// WAL — which knows this client's last executed call is 1 — and
	// must run call 2 fresh, not suppress it.
	resend, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: 2, ProcID: ProcMkdir, ClientID: remote.fo.ClientID()}, payload)
	if err != nil {
		t.Fatal(err)
	}
	link.Send(wire.A, resend)
	remote.server.Wire.Poll()

	if _, err := remote.server.CurrentFS().Stat("/d/shed"); err != nil {
		t.Errorf("retransmit after shed+crash did not execute: %v", err)
	}
	recoveries, _ := remote.server.Recoveries()
	if recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", recoveries)
	}
	if st := remote.server.Wire.Stats(); st.LogDuplicates != 0 || st.DuplicatesSuppressed != 0 {
		t.Errorf("logDup = %d cacheDup = %d, want 0 and 0 (the shed must not have seeded dedup)",
			st.LogDuplicates, st.DuplicatesSuppressed)
	}
}

// TestShedRetransmitAcrossFailover: a call shed by the primary is
// never shipped to the backup, so after the primary dies and the
// backup promotes, the same call ID arriving there must execute — the
// shipped WAL holds no record to wrongly suppress it. Overload itself
// must not trigger the failover: only the primary's death does.
func TestShedRetransmitAcrossFailover(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	cluster := NewCluster(64, cm, DefaultReplicaConfig())
	remote := cluster.NewClient()
	cluster.Primary().Wire.SetShedExpired(true)

	if err := remote.Mkdir("/base"); err != nil { // call 1: executed, shipped
		t.Fatal(err)
	}
	clientID := remote.fo.ClientID()
	cluster.PrimaryLink().AdvanceClock(100)

	// Call 2, already expired: the primary sheds it without executing,
	// logging, or shipping.
	payload := wire.AppendString(nil, "/shed")
	expired, err := wire.Encode(wire.Header{Kind: wire.KindCall, CallID: 2, ProcID: ProcMkdir, ClientID: clientID, Expiry: 1}, payload)
	if err != nil {
		t.Fatal(err)
	}
	cluster.PrimaryLink().Send(wire.A, expired)
	cluster.Primary().Wire.Poll()
	if st := cluster.Primary().Wire.Stats(); st.ShedExpired != 1 {
		t.Fatalf("shedExpired = %d, want 1", st.ShedExpired)
	}
	if _, err := cluster.Primary().CurrentFS().Stat("/shed"); err == nil {
		t.Fatal("shed op executed on the primary")
	}
	if remote.Stats().Wire.Failovers != 0 {
		t.Fatal("overload triggered a failover")
	}
	for { // drain the reject
		if _, err := cluster.PrimaryLink().RecvClient(wire.A, clientID); err != nil {
			break
		}
	}

	cluster.KillPrimaryForever()

	// The failover client's next call reuses ID 2 (the shed consumed no
	// sequence number it knew about): it fails over to the promoted
	// backup and must execute there exactly once.
	if err := remote.Mkdir("/shed"); err != nil {
		t.Fatalf("re-issued op after failover: %v", err)
	}
	if !cluster.Backup(0).Promoted() {
		t.Fatal("backup did not promote")
	}
	if _, err := cluster.ActiveFS().Stat("/shed"); err != nil {
		t.Errorf("/shed missing after failover: %v", err)
	}
	if _, err := cluster.ActiveFS().Stat("/base"); err != nil {
		t.Errorf("/base missing after failover: %v", err)
	}
	if st := cluster.Backup(0).srv.Wire.Stats(); st.LogDuplicates != 0 {
		t.Errorf("promoted backup suppressed the call as a log duplicate (%d)", st.LogDuplicates)
	}
	if err := cluster.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}
