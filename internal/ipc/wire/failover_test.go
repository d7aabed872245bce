package wire

import (
	"errors"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestEpochFenceAdmitsMonotonically(t *testing.T) {
	var f EpochFence
	for _, e := range []uint32{1, 1, 3, 3} {
		if !f.Admit(e) {
			t.Fatalf("epoch %d rejected below the fence %d", e, f.Max())
		}
	}
	if f.Admit(2) {
		t.Error("epoch 2 admitted past a fence at 3")
	}
	if f.Max() != 3 {
		t.Errorf("Max = %d, want 3", f.Max())
	}
}

// fatalCrasher kills on the first recv draw and declares it permanent.
type fatalCrasher struct{ fired bool }

func (c *fatalCrasher) CrashNow(p faultplane.CrashPoint) bool {
	if p == faultplane.CrashOnRecv && !c.fired {
		c.fired = true
		return true
	}
	return false
}

func (c *fatalCrasher) Fatal() bool { return c.fired }

// replicaPair builds two endpoints on separate links sharing one
// clock, both serving an echo-like proc that reports which endpoint
// answered, bundled under one FailoverClient.
func replicaPair(t *testing.T) (*FailoverClient, []*Server, []*Link) {
	t.Helper()
	clock := NewVClock()
	l0 := NewLinkOnClock(ipc.Ethernet10, clock)
	l1 := NewLinkOnClock(ipc.Ethernet10, clock)
	s0, s1 := NewServer(l0, B), NewServer(l1, B)
	for i, s := range []*Server{s0, s1} {
		who := int64(i)
		s.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
			rep.Int64(who)
			return nil
		})
	}
	c0, c1 := NewClient(l0, A), NewClient(l1, A)
	return NewFailoverClient([]*Client{c0, c1}, []*Server{s0, s1}), []*Server{s0, s1}, []*Link{l0, l1}
}

func TestFailoverClientSharesIdentity(t *testing.T) {
	fc, _, _ := replicaPair(t)
	if fc.clients[0].ClientID != fc.clients[1].ClientID {
		t.Fatal("endpoint clients do not share one ClientID")
	}
	if fc.clients[0].Fence != fc.clients[1].Fence || fc.clients[0].Fence == nil {
		t.Fatal("endpoint clients do not share one epoch fence")
	}
}

func TestFailoverClientSwitchesOnTransportFailure(t *testing.T) {
	fc, servers, _ := replicaPair(t)
	fc.Tune(3, 0)
	fc.OnFailover(func() int {
		if servers[0].PermanentlyDown() {
			return 1
		}
		return -1
	})
	out, err := fc.Call(1)
	if err != nil || out[0].(int64) != 0 {
		t.Fatalf("first call: %v %v, want endpoint 0", out, err)
	}
	servers[0].SetCrasher(&fatalCrasher{fired: true})
	servers[0].ForceCrash()
	out, err = fc.Call(1)
	if err != nil || out[0].(int64) != 1 {
		t.Fatalf("call after death: %v %v, want endpoint 1 to answer", out, err)
	}
	if fc.Active() != 1 {
		t.Errorf("Active = %d, want 1", fc.Active())
	}
	if st := fc.Stats(); st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", st.Failovers)
	}
	// Subsequent calls go straight to the new endpoint.
	if out, err = fc.Call(1); err != nil || out[0].(int64) != 1 {
		t.Fatalf("settled call: %v %v", out, err)
	}
}

func TestFailoverClientDoesNotMaskServerErrors(t *testing.T) {
	// A RemoteError means the service answered; switching endpoints
	// would retry an op the server deliberately refused.
	fc, servers, _ := replicaPair(t)
	servers[0].RegisterRaw(2, func(h Header, a *Args, rep *Reply) error {
		return errors.New("no")
	})
	hookCalled := false
	fc.OnFailover(func() int { hookCalled = true; return 1 })
	_, err := fc.Call(2)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if hookCalled {
		t.Error("failover hook consulted for a server-side error")
	}
	if fc.Active() != 0 {
		t.Errorf("Active = %d, want 0 (no failover)", fc.Active())
	}
}

func TestFailoverCallRawResealsOneBuilder(t *testing.T) {
	// One builder, two endpoints: the call that fails over is re-sealed
	// under the same call ID, so the promoted endpoint sees the same
	// operation, and the cursor reads the endpoint that answered.
	fc, servers, _ := replicaPair(t)
	fc.Tune(2, 0)
	var seen []uint32
	for i, s := range servers {
		who := int64(i)
		s.RegisterRaw(3, func(h Header, a *Args, rep *Reply) error {
			seen = append(seen, h.CallID)
			rep.Int64(who + a.Int64())
			return nil
		})
	}
	fc.OnFailover(func() int { return 1 })
	servers[0].SetCrasher(&fatalCrasher{fired: true})
	servers[0].ForceCrash()
	w := fc.NewCallArgs()
	w.Int64(40)
	res, err := fc.CallRaw(3, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int64(); got != 41 || res.Err() != nil {
		t.Fatalf("result = %d (%v), want 41 from endpoint 1", got, res.Err())
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("endpoint 1 executed call IDs %v, want [1]", seen)
	}
	if fc.Active() != 1 || fc.Stats().Failovers != 1 {
		t.Errorf("Active = %d, Failovers = %d, want 1 and 1", fc.Active(), fc.Stats().Failovers)
	}
}

func TestFailoverClientPeerIsAFreshCallerOnTheSameEndpoints(t *testing.T) {
	fc, servers, _ := replicaPair(t)
	fc.Tune(5, 900)
	hooked := 0
	fc.OnFailover(func() int { hooked++; return -1 })
	p := fc.Peer()
	if p.ClientID() == fc.ClientID() {
		t.Fatalf("peer shares ClientID %d", p.ClientID())
	}
	for i, c := range p.clients {
		if c.ClientID != p.ClientID() || c.Fence != p.Fence() || c.Fence == fc.Fence() {
			t.Errorf("endpoint %d: identity %d fence shared=%v, want the peer's own", i, c.ClientID, c.Fence == fc.Fence())
		}
		if c.MaxRetries != 5 || c.DeadlineMicros != 900 {
			t.Errorf("endpoint %d tuning = %d/%v, want 5/900", i, c.MaxRetries, c.DeadlineMicros)
		}
		if p.servers[i] != servers[i] {
			t.Errorf("endpoint %d serves a different server", i)
		}
	}
	servers[0].ForceCrash()
	if _, err := p.Call(1); !transportFailure(err) || hooked != 1 {
		t.Errorf("err = %v, hook consulted %d times; want a transport failure after one consult", err, hooked)
	}
}

func TestFailoverClientGivesUpWhenHookDeclines(t *testing.T) {
	fc, servers, _ := replicaPair(t)
	fc.Tune(2, 0)
	fc.OnFailover(func() int { return -1 })
	servers[0].ForceCrash() // recoverable crash, but no restart hook: dead
	if _, err := fc.Call(1); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed surfaced", err)
	}
	if fc.Active() != 0 {
		t.Error("endpoint switched although the hook declined")
	}
}

func TestPermanentlyDown(t *testing.T) {
	clock := NewVClock()
	link := NewLinkOnClock(ipc.Ethernet10, clock)
	s := NewServer(link, B)
	if s.PermanentlyDown() {
		t.Fatal("live server reported permanently down")
	}
	// A crash with no restart hook is permanent by construction.
	s.ForceCrash()
	if !s.PermanentlyDown() {
		t.Fatal("hookless crashed server not permanently down")
	}
	// With a restart hook, a crash is only permanent when the crasher
	// declares it fatal.
	s2 := NewServer(NewLinkOnClock(ipc.Ethernet10, clock), B)
	s2.OnRestart(func() { s2.Restart() })
	s2.ForceCrash()
	if s2.PermanentlyDown() {
		t.Fatal("restartable crashed server reported permanently down")
	}
	cr := &fatalCrasher{fired: true}
	s2.SetCrasher(cr)
	if !s2.PermanentlyDown() {
		t.Fatal("fatally crashed server not reported permanently down")
	}
}

func TestSharedClockTicksAcrossLinks(t *testing.T) {
	// Two links on one VClock advance a single timeline: traffic on
	// either moves both Clock() readings identically.
	clock := NewVClock()
	l0 := NewLinkOnClock(ipc.Ethernet10, clock)
	l1 := NewLinkOnClock(ipc.Ethernet10, clock)
	s := NewServer(l0, B)
	s.RegisterRaw(1, echoRaw)
	c := NewClient(l0, A)
	if _, err := c.Call(s, 1); err != nil {
		t.Fatal(err)
	}
	if l0.Clock() == 0 {
		t.Fatal("traffic did not advance the clock")
	}
	if l0.Clock() != l1.Clock() {
		t.Errorf("links diverged: %v vs %v", l0.Clock(), l1.Clock())
	}
	l1.AdvanceClock(100)
	if l0.Clock() != l1.Clock() {
		t.Errorf("AdvanceClock on one link did not move the other: %v vs %v", l0.Clock(), l1.Clock())
	}
}

func TestFencedStaleReplyIsDiscarded(t *testing.T) {
	// A reply stamped with an epoch below the client's fence must be
	// dropped, not surfaced — the cross-endpoint stale-reply guard.
	link := NewLink(ipc.Ethernet10)
	s := NewServer(link, B)
	s.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error { rep.Int64(7); return nil })
	c := NewClient(link, A)
	c.Fence = &EpochFence{}
	if !c.Fence.Admit(5) {
		t.Fatal("setup: fence rejected its own baseline")
	}
	c.MaxRetries = 1
	// The server is in epoch 1 < 5: its replies are stale by fence rule
	// and the call must exhaust its budget rather than accept one.
	if _, err := c.Call(s, 1); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed (stale replies discarded)", err)
	}
	if st := c.Stats(); st.FencedReplies == 0 {
		t.Error("no FencedReplies counted")
	}
}

func TestFailoverClientStaysOnASheddingPrimary(t *testing.T) {
	// A primary that sheds every attempt is alive and declining: the
	// call ends in ErrOverloaded when its deadline runs out, and the
	// failover hook is never asked to switch away (the backup would
	// inherit exactly the load the primary shed).
	fc, servers, _ := replicaPair(t)
	servers[0].SetShedExpired(true)
	fc.Tune(3, 1) // 1 µs: the stamp expires in flight on Ethernet
	hooks := 0
	fc.OnFailover(func() int {
		hooks++
		return 1
	})
	_, err := fc.Call(1)
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want ErrOverloaded", err)
	}
	if hooks != 0 || fc.Active() != 0 || fc.Stats().Failovers != 0 {
		t.Errorf("hook consulted %d times, active endpoint %d, %d failovers; want 0, 0 and 0",
			hooks, fc.Active(), fc.Stats().Failovers)
	}
	if st := servers[0].Stats(); st.ShedExpired != 1 || st.Served != 0 {
		t.Errorf("primary shed %d and served %d, want 1 and 0", st.ShedExpired, st.Served)
	}
}
