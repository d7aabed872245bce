package wire

import (
	"errors"
	"testing"

	"archos/internal/ipc"
	"archos/internal/obs"
)

// TestShedExpiredCall: a call whose propagated deadline has already
// passed is rejected — no handler execution, nothing cached — and the
// client surfaces it as ErrOverloaded.
func TestShedExpiredCall(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	server.SetShedExpired(true)
	link.AdvanceClock(10_000) // the clock is well past any small expiry

	// Craft the frame by hand with an expiry long past: the server
	// must refuse it.
	frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID, Expiry: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	link.Send(A, frame)
	server.Poll()
	if *executions != 0 {
		t.Fatalf("expired call executed %d times, want 0", *executions)
	}
	if st := server.Stats(); st.ShedExpired != 1 || st.Served != 0 {
		t.Errorf("shedExpired = %d served = %d, want 1 and 0", st.ShedExpired, st.Served)
	}
	if _, reason, err := client.awaitReplyFrame(nil, 1); err != nil || reason != RejectExpired {
		t.Errorf("reject reason = %d err = %v, want RejectExpired", reason, err)
	}
}

// TestExpiryStamp pins the one encoding of a deadline into the
// header's 32-bit Expiry field, which the client engine and the load
// generator both stamp: a deadline under 1 µs stamps 1, never the 0
// that means "no deadline", and one past the field's range saturates
// instead of wrapping into the past. A client stamps its deadline
// budget from now (a fresh link's clock reads 0), and a client without
// one stamps 0.
func TestExpiryStamp(t *testing.T) {
	const top = 1<<32 - 1
	for _, c := range []struct {
		micros float64
		want   uint32
	}{
		{0.5, 1},
		{1, 1},
		{20_000.75, 20_000},
		{top, top},
		{1 << 32, top},
		{5e9, top},
	} {
		if got := ExpiryStamp(c.micros); got != c.want {
			t.Errorf("ExpiryStamp(%g) = %d, want %d", c.micros, got, c.want)
		}
		client := NewClient(NewLink(ipc.Ethernet10), A)
		client.DeadlineMicros = c.micros
		if got := client.expiryStamp(); got != c.want {
			t.Errorf("client with DeadlineMicros %g stamps %d, want %d", c.micros, got, c.want)
		}
	}
	if got := NewClient(NewLink(ipc.Ethernet10), A).expiryStamp(); got != 0 {
		t.Errorf("client without a deadline stamps %d, want 0", got)
	}
}

// TestShedDoesNotPoisonReplyCache: after a call is shed, a later
// retransmission of the same call ID must be served as a fresh call —
// the shed left no at-most-once record to confuse dedup — and it must
// execute exactly once.
func TestShedDoesNotPoisonReplyCache(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	server.SetShedExpired(true)
	link.AdvanceClock(10_000)

	expired, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID, Expiry: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	link.Send(A, expired)
	server.Poll()
	if *executions != 0 {
		t.Fatalf("expired call executed %d times, want 0", *executions)
	}
	// Drain the reject so it cannot be mistaken for the retry's answer.
	if _, reason, err := client.awaitReplyFrame(nil, 1); err != nil || reason != RejectExpired {
		t.Fatalf("reject reason = %d err = %v, want RejectExpired", reason, err)
	}

	// The retransmission carries a live deadline (or none): it must be
	// admitted, executed once, and answered normally.
	client.nextID = 0 // the crafted frame used call ID 1; reuse it
	out, err := client.Call(server, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 1 || *executions != 1 {
		t.Errorf("retransmit after shed: result %v, executions %d; want 1 and 1", out[0], *executions)
	}
	if st := server.Stats(); st.DuplicatesSuppressed != 0 {
		t.Errorf("duplicates suppressed = %d, want 0 (the shed must not have cached anything)", st.DuplicatesSuppressed)
	}
}

// TestServiceChargeConsumesVirtualTime: each executed handler advances
// the clock by the configured charge; cache hits do not.
func TestServiceChargeConsumesVirtualTime(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, _ := countingServer(link)
	server.SetServiceCharge(5000) // far above the ~400 µs of wire charges

	before := link.Clock()
	if _, err := client.Call(server, 1); err != nil {
		t.Fatal(err)
	}
	executed := link.Clock() - before
	if executed < 5000 {
		t.Errorf("first call advanced %.0f µs, want ≥ 5000 (the service charge)", executed)
	}

	// A retransmission answered from the cache must not pay the charge:
	// replay call 1's frame and compare the clock delta.
	dup, _ := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID}, nil)
	before = link.Clock()
	link.Send(A, dup)
	server.Poll()
	if delta := link.Clock() - before; delta >= 5000 {
		t.Errorf("cache hit advanced %.0f µs, want < 5000 (no service charge)", delta)
	}
	if server.Stats().DuplicatesSuppressed != 1 {
		t.Errorf("duplicates suppressed = %d, want 1", server.Stats().DuplicatesSuppressed)
	}
}

// TestAllRejectsSurfacesOverloaded: when every attempt is answered
// with a reject, exhaustion is ErrOverloaded — the op provably never
// executed — not the generic ErrCallFailed. The call is sealed by hand
// with an expiry that has already passed, so each of its four attempts
// reaches the shedding server and is rejected.
func TestAllRejectsSurfacesOverloaded(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server, executions := countingServer(link)
	server.SetShedExpired(true)
	link.AdvanceClock(10_000)

	client.MaxRetries = 3 // four attempts, four rejects
	frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID, Expiry: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.drive(server, 1, 1, frame)
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want ErrOverloaded", err)
	}
	if st := client.Stats(); st.Rejects != 4 {
		t.Errorf("rejects = %d, want 4", st.Rejects)
	}
	if *executions != 0 {
		t.Errorf("executions = %d, want 0", *executions)
	}
}

// TestBackoffJitterDesynchronizes: two clients with identical loss
// patterns must back off for different amounts of virtual time — the
// per-client jitter breaks the lockstep — while each client's own
// sequence is a pure function of its ClientID (rebuild it and the
// total reproduces exactly).
func TestBackoffJitterDesynchronizes(t *testing.T) {
	total := func(clientID uint32) float64 {
		j := newJitterRand(clientID)
		sum := 0.0
		for _, base := range []float64{50, 100, 200} {
			sum += base * (0.5 + j.float64())
		}
		return sum
	}

	link := NewLink(ipc.Ethernet10)
	server, _ := countingServer(link)
	backoffs := map[uint32]float64{}
	for i := 0; i < 2; i++ {
		c := NewClient(link, A)
		c.MaxRetries = 4
		// Lose this client's first three transmissions: a dropped call
		// produces no reply, so they are three consecutive frames.
		base := link.Frames()
		for n := 1; n <= 3; n++ {
			script(link).Drop(base + n)
		}
		if _, err := c.Call(server, 1); err != nil {
			t.Fatal(err)
		}
		got := c.Stats().BackoffMicros
		if want := total(c.ClientID); got != want {
			t.Errorf("client %d backoff = %.3f, want %.3f (deterministic per ID)", c.ClientID, got, want)
		}
		backoffs[c.ClientID] = got
	}
	seen := map[float64]bool{}
	for id, b := range backoffs {
		if seen[b] {
			t.Fatalf("client %d backed off identically to another client (%.3f µs): retransmits are in lockstep", id, b)
		}
		seen[b] = true
	}
}

// TestRetryBudgetTokenBucket: the bucket starts full at its burst,
// denies a spend once empty, and refills by its ratio per earned
// success; each denial emits a budget_denied event carrying the
// running denial count.
func TestRetryBudgetTokenBucket(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	rec := obs.NewRecorder(&obs.ManualClock{})
	b.SetRecorder(rec)
	if !b.Spend() || !b.Spend() {
		t.Fatal("burst of 2 must fund two retries")
	}
	if b.Spend() {
		t.Fatal("third spend must be denied")
	}
	b.Earn()
	b.Earn() // two successes × 0.5 = one token
	if !b.Spend() {
		t.Fatal("earned token must fund a retry")
	}
	if b.Spend() {
		t.Fatal("fifth spend must be denied")
	}
	var denials []float64
	for _, e := range rec.Events() {
		if e.Layer == "overload" && e.Name == "budget_denied" {
			denials = append(denials, e.Val)
		}
	}
	if len(denials) != 2 || denials[0] != 1 || denials[1] != 2 {
		t.Errorf("budget_denied events carry %v, want [1 2]", denials)
	}
}
