package wire

import (
	"errors"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

// scriptedCrasher fires at chosen draws of one crash window and
// ignores every other window — the deterministic counterpart of a
// seeded CrashPlane for single-window tests.
type scriptedCrasher struct {
	point faultplane.CrashPoint
	fire  map[int]bool // nth draw of point → crash
	n     int
}

func (c *scriptedCrasher) CrashNow(p faultplane.CrashPoint) bool {
	if p != c.point {
		return false
	}
	c.n++
	return c.fire[c.n]
}

// sessionAuth is a minimal durable at-most-once record for wire-level
// tests: the handler records each executed call, and lookup regenerates
// the reply with the server's current epoch — the same shape the file
// server's WAL-backed authority has.
type sessionAuth struct {
	server *Server
	calls  map[uint32]uint32
	vals   map[uint32]int64
}

func newSessionAuth(s *Server) *sessionAuth {
	return &sessionAuth{server: s, calls: map[uint32]uint32{}, vals: map[uint32]int64{}}
}

func (a *sessionAuth) record(h Header, v int64) {
	a.calls[h.ClientID] = h.CallID
	a.vals[h.ClientID] = v
}

func (a *sessionAuth) lookup(clientID uint32) (uint32, []byte, bool) {
	call, ok := a.calls[clientID]
	if !ok {
		return 0, nil, false
	}
	body, err := AppendMarshal(nil, true, a.vals[clientID])
	if err != nil {
		return call, nil, true
	}
	frame, err := Encode(Header{Kind: KindReply, CallID: call, ProcID: 1, ClientID: clientID, Epoch: a.server.Epoch()}, body)
	if err != nil {
		return call, nil, true
	}
	return call, frame, true
}

func TestForceCrashStopsServingWithoutRestartHook(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	server.ForceCrash()
	if !server.Crashed() {
		t.Fatal("server not crashed after ForceCrash")
	}
	if _, err := client.Call(server, 1); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("call against a dead server returned %v, want ErrCallFailed", err)
	}
	if *executions != 0 {
		t.Errorf("dead server executed %d ops", *executions)
	}
	st := server.Stats()
	if st.Crashes != 1 || st.Restarts != 0 {
		t.Errorf("stats = %+v, want 1 crash and no restart", st)
	}
}

func TestRestartHookRevivesServerIntoNewEpoch(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	reg := func() { server.RegisterRaw(1, counting(executions)) }
	server.OnRestart(func() {
		server.Restart()
		reg()
	})
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() != 1 {
		t.Fatalf("epoch after first call = %d, want 1", client.Epoch())
	}
	server.ForceCrash()
	out, err := client.Call(server, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 2 || *executions != 2 {
		t.Errorf("post-crash call executed %d times total, out=%v", *executions, out[0])
	}
	if client.Epoch() != 2 {
		t.Errorf("epoch after restart = %d, want 2", client.Epoch())
	}
	if got := client.Stats().SessionsReestablished; got != 1 {
		t.Errorf("SessionsReestablished = %d, want 1", got)
	}
	st := server.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Errorf("server stats = %+v, want 1 crash and 1 restart", st)
	}
}

func TestCrashPurgesPendingInput(t *testing.T) {
	// A frame queued toward the server when it dies is lost with the
	// process: after restart it must not execute.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	server.OnRestart(func() {
		server.Restart()
		server.RegisterRaw(1, counting(executions))
	})
	orphan, _ := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: 999}, nil)
	link.Send(A, orphan)
	server.ForceCrash()
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if *executions != 1 {
		t.Errorf("executions = %d, want 1 (the purged frame must not run)", *executions)
	}
}

func TestPreReplyCrashAnsweredFromAuthority(t *testing.T) {
	// The at-most-once hazard window: the op executes, the server dies
	// before the reply leaves. The retransmission must be answered from
	// the durable authority by the restarted server — same result, new
	// epoch, no second execution.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	auth := newSessionAuth(server)
	executions := 0
	reg := func() {
		server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
			executions++
			v := int64(100 + executions)
			auth.record(h, v)
			rep.Int64(v)
			return nil
		})
	}
	reg()
	server.SetDedupAuthority(auth.lookup)
	server.OnRestart(func() {
		server.Restart()
		reg()
	})
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	server.SetCrasher(&scriptedCrasher{point: faultplane.CrashPreReply, fire: map[int]bool{1: true}})
	out, err := client.Call(server, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 102 {
		t.Errorf("out = %v, want the crashed call's own result 102", out[0])
	}
	if executions != 2 {
		t.Errorf("executions = %d, want 2 (no re-execution of the logged call)", executions)
	}
	if client.Epoch() != 2 {
		t.Errorf("client epoch = %d, want 2", client.Epoch())
	}
	st := server.Stats()
	if st.LogDuplicates != 1 {
		t.Errorf("LogDuplicates = %d, want 1", st.LogDuplicates)
	}
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Errorf("server stats = %+v, want 1 crash, 1 restart", st)
	}
	if got := client.Stats().SessionsReestablished; got != 1 {
		t.Errorf("SessionsReestablished = %d, want 1", got)
	}
}

func TestRepliesCarryEpoch(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, _ := countingServer(link)
	if client.Epoch() != 0 {
		t.Fatalf("epoch before any reply = %d, want 0", client.Epoch())
	}
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if client.Epoch() != server.Epoch() || client.Epoch() != 1 {
		t.Errorf("client epoch %d, server epoch %d, want both 1", client.Epoch(), server.Epoch())
	}
}
