package wire

import (
	"errors"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

// counting is a non-idempotent handler: it increments *executions and
// returns the count, so any re-execution of a retransmitted call is
// visible in the result.
func counting(executions *int) RawHandler {
	return func(h Header, a *Args, rep *Reply) error {
		*executions++
		rep.Int64(int64(*executions))
		return nil
	}
}

// countingServer registers counting on proc 1.
func countingServer(link *Link) (*Server, *int) {
	server := NewServer(link, B)
	executions := 0
	server.RegisterRaw(1, counting(&executions))
	return server, &executions
}

func TestAtMostOnceOnDroppedReply(t *testing.T) {
	// The call executes, but its reply is lost. The retransmitted call
	// must be answered from the reply cache — the handler runs once.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	script(link).Drop(2) // frame 1 = call, frame 2 = its reply
	out, err := client.Call(server, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 1 || *executions != 1 {
		t.Errorf("handler executed %d times (reply %v), want exactly once", *executions, out[0])
	}
	if client.Stats().Retries != 1 {
		t.Errorf("retries = %d, want 1", client.Stats().Retries)
	}
	if server.Stats().DuplicatesSuppressed != 1 {
		t.Errorf("duplicates suppressed = %d, want 1", server.Stats().DuplicatesSuppressed)
	}
	if server.Stats().Served != 1 {
		t.Errorf("served = %d, want 1 (cache resends are not fresh serves)", server.Stats().Served)
	}
}

func TestAtMostOnceAcrossSequentialCalls(t *testing.T) {
	// A duplicate of call N arriving while call N+1 is current must be
	// recognised as stale, not re-executed.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	// Replay call 1's frame by hand: a late duplicate from the network.
	stale, _ := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID}, nil)
	link.Send(A, stale)
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if *executions != 2 {
		t.Errorf("handler executed %d times for 2 calls + 1 duplicate", *executions)
	}
	if server.Stats().DuplicatesSuppressed+server.Stats().StaleFrames == 0 {
		t.Error("late duplicate neither suppressed nor dropped as stale")
	}
}

func TestEncodeErrorsAreCounted(t *testing.T) {
	// A handler whose reply cannot be encoded (oversize) must land in
	// EncodeErrors instead of vanishing; it does not count as Served,
	// and it may not re-execute on retransmission.
	t.Run("encode", func(t *testing.T) {
		link := NewLink(ipc.Ethernet10)
		client := NewClient(link, A)
		client.MaxRetries = 2
		server := NewServer(link, B)
		executions := 0
		server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
			executions++
			rep.Bytes(make([]byte, maxPayload+1))
			return nil
		})
		_, err := client.Call(server, 1)
		if !errors.Is(err, ErrCallFailed) {
			t.Fatalf("err = %v, want ErrCallFailed (no reply can arrive)", err)
		}
		if server.Stats().EncodeErrors != 1 {
			t.Errorf("encode errors = %d, want 1", server.Stats().EncodeErrors)
		}
		if server.Stats().Served != 0 {
			t.Errorf("served = %d, want 0 (no reply was transmitted)", server.Stats().Served)
		}
		if executions != 1 {
			t.Errorf("handler executed %d times; retransmits must not re-run it", executions)
		}
		if server.Stats().DuplicatesSuppressed != client.Stats().Retries {
			t.Errorf("suppressed %d duplicates for %d retries", server.Stats().DuplicatesSuppressed, client.Stats().Retries)
		}
	})
}

func TestBackoffChargesVirtualClock(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	client.MaxRetries = 4
	server, _ := countingServer(link)
	script(link).Drop(1)
	script(link).Drop(2)
	script(link).Drop(3)
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	// Three retries: 50 + 100 + 200 µs of capped exponential backoff,
	// each pause scaled by the client's deterministic jitter draw in
	// [0.5, 1.5) — recompute the same sequence here.
	j := newJitterRand(client.ClientID)
	want := 0.0
	for _, base := range []float64{50, 100, 200} {
		want += base * (0.5 + j.float64())
	}
	if client.Stats().BackoffMicros != want {
		t.Errorf("backoff = %.0f µs, want %.0f", client.Stats().BackoffMicros, want)
	}
	if link.Clock() < client.Stats().BackoffMicros {
		t.Errorf("link clock %.0f µs did not absorb backoff %.0f µs", link.Clock(), client.Stats().BackoffMicros)
	}
}

func TestDeadlineBudgetExceeded(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	client.MaxRetries = 1000
	client.DeadlineMicros = 500
	server, _ := countingServer(link)
	for i := 1; i <= 2000; i++ {
		script(link).Drop(i)
	}
	_, err := client.Call(server, 1)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if client.Stats().DeadlineExceeded != 1 {
		t.Errorf("deadline exceeded count = %d", client.Stats().DeadlineExceeded)
	}
	// The budget must have bounded the retry storm well below MaxRetries.
	if client.Stats().Retries >= 1000 {
		t.Errorf("retries = %d; deadline did not bound the call", client.Stats().Retries)
	}
}

func TestReorderedFrameStillDelivered(t *testing.T) {
	// A plane that reorders every frame must not lose any: a held frame
	// flushes behind the next send, or on Recv when nothing else comes.
	link := NewLink(ipc.Ethernet10)
	link.SetFaultPlane(faultplane.New(faultplane.Policy{Seed: 1, Reorder: 1.0}))
	client := NewClient(link, A)
	server, executions := countingServer(link)
	for i := 0; i < 10; i++ {
		if _, err := client.Call(server, 1); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if *executions != 10 {
		t.Errorf("executions = %d, want 10", *executions)
	}
}

func TestChaosEchoSoakExactlyOnce(t *testing.T) {
	// 500 sequential calls through ≥20% combined loss/dup/reorder: every
	// call must succeed, and the non-idempotent handler must run exactly
	// once per call, in order.
	link := NewLink(ipc.Ethernet10)
	plane := faultplane.New(faultplane.Chaos(1991))
	link.SetFaultPlane(plane)
	client := NewClient(link, A)
	client.MaxRetries = 32
	server, executions := countingServer(link)
	const calls = 500
	for i := 1; i <= calls; i++ {
		out, err := client.Call(server, 1)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if out[0].(int64) != int64(i) {
			t.Fatalf("call %d returned execution count %v — duplicate or lost execution", i, out[0])
		}
	}
	if *executions != calls {
		t.Errorf("handler executed %d times for %d calls", *executions, calls)
	}
	c := plane.Counts()
	if c.Dropped == 0 || c.Duplicated == 0 || c.Reordered == 0 || c.Corrupted == 0 {
		t.Errorf("chaos plane inert: %+v", c)
	}
	if client.Stats().Retries == 0 || server.Stats().DuplicatesSuppressed == 0 {
		t.Errorf("no retransmission traffic: client %+v server %+v", client.Stats(), server.Stats())
	}
}

func TestChaosEchoSoakIsReproducible(t *testing.T) {
	run := func() (Stats, Stats, faultplane.Counts, float64) {
		link := NewLink(ipc.Ethernet10)
		plane := faultplane.New(faultplane.Chaos(7))
		link.SetFaultPlane(plane)
		client := NewClient(link, A)
		client.MaxRetries = 32
		server, _ := countingServer(link)
		for i := 0; i < 200; i++ {
			if _, err := client.Call(server, 1); err != nil {
				t.Fatal(err)
			}
		}
		return client.Stats(), server.Stats(), plane.Counts(), link.Clock()
	}
	c1, s1, f1, clock1 := run()
	c2, s2, f2, clock2 := run()
	if c1 != c2 || s1 != s2 || f1 != f2 || clock1 != clock2 {
		t.Errorf("same seed diverged:\nclient %+v vs %+v\nserver %+v vs %+v\nplane %+v vs %+v\nclock %v vs %v",
			c1, c2, s1, s2, f1, f2, clock1, clock2)
	}
}

func TestTwoClientsShareOneServer(t *testing.T) {
	// The reply cache is per client: client 2's call #1 must not be
	// mistaken for a duplicate of client 1's call #1.
	link := NewLink(ipc.Ethernet10)
	c1 := NewClient(link, A)
	c2 := NewClient(link, A)
	if c1.ClientID == c2.ClientID {
		t.Fatalf("clients share ID %d", c1.ClientID)
	}
	server, executions := countingServer(link)
	if _, err := c1.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	if *executions != 2 {
		t.Errorf("executions = %d, want 2 (one per client)", *executions)
	}
	if server.Stats().DuplicatesSuppressed != 0 {
		t.Errorf("cross-client call wrongly suppressed (%d)", server.Stats().DuplicatesSuppressed)
	}
}
