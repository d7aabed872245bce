package fsserver

import (
	"errors"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// TestOverloadErrorSplit: a shed op surfaces as the typed ErrOverloaded
// with its own counter, a transport-exhausted op stays ErrUnavailable —
// the two failure classes never conflate. The shed is deterministic:
// on an Ethernet-class link a 1 µs deadline, stamped into the call
// header, expires while the frame is in flight, so the server sheds the
// single attempt.
func TestOverloadErrorSplit(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(ipc.Ethernet10)
	remote := NewRemoteOnLink(fs.New(64), cm, link)
	remote.server.Wire.SetShedExpired(true)

	remote.Tune(0, 1)
	err := remote.Mkdir("/shed")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed op err = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("shed op err = %v leaked into another class", err)
	}
	if _, err := remote.server.CurrentFS().Stat("/shed"); err == nil {
		t.Error("shed op executed: /shed exists")
	}

	// A lost frame with no retries left is the transport failing — the
	// old catch-all, now strictly for non-overload failures.
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
	if st.Wire.ShedExpired != 1 || st.Wire.Rejects != 1 {
		t.Errorf("wire shedExpired = %d rejects = %d, want 1 and 1", st.Wire.ShedExpired, st.Wire.Rejects)
	}
}

// TestShedOpOutOfDeadlineIsOverloaded: with retries left, a shed op
// whose deadline runs out before the retransmission is still the
// service declining it — ErrOverloaded in OverloadedOps — not a
// transport failure in DegradedOps, which a cluster client would fail
// over on.
func TestShedOpOutOfDeadlineIsOverloaded(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	remote := NewRemoteOnLink(fs.New(64), cm, wire.NewLink(ipc.Ethernet10))
	remote.server.Wire.SetShedExpired(true)
	remote.Tune(3, 1)

	err := remote.Mkdir("/shed")
	if !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("shed op err = %v, want ErrOverloaded alone", err)
	}
	st := remote.Stats()
	if st.OverloadedOps != 1 || st.DegradedOps != 0 {
		t.Errorf("overloaded = %d degraded = %d, want 1 and 0", st.OverloadedOps, st.DegradedOps)
	}
	if st.Wire.ShedExpired != 1 || st.Wire.Rejects != 1 || st.Wire.DeadlineExceeded != 0 {
		t.Errorf("wire shedExpired = %d rejects = %d deadlineExceeded = %d, want 1, 1 and 0",
			st.Wire.ShedExpired, st.Wire.Rejects, st.Wire.DeadlineExceeded)
	}
	if _, err := remote.server.CurrentFS().Stat("/shed"); err == nil {
		t.Error("shed op executed: /shed exists")
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
