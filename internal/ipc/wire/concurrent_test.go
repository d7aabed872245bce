package wire

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestSendDecisionTable(t *testing.T) {
	// Every combination of Drop/Corrupt/Duplicate/Reorder on one frame:
	// a dropped frame never arrives; otherwise the frame arrives once
	// plus once more when duplicated — even when it is simultaneously
	// reordered (the regression: the old Send returned early on reorder
	// and lost the duplicate) — and corruption damages every delivered
	// copy.
	for mask := 0; mask < 16; mask++ {
		d := faultplane.Decision{
			Drop:      mask&1 != 0,
			Corrupt:   mask&2 != 0,
			Duplicate: mask&4 != 0,
			Reorder:   mask&8 != 0,
		}
		name := fmt.Sprintf("drop=%v,corrupt=%v,dup=%v,reorder=%v", d.Drop, d.Corrupt, d.Duplicate, d.Reorder)
		t.Run(name, func(t *testing.T) {
			link := NewLink(ipc.Ethernet10)
			script(link).Set(1, d)
			frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1}, []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			link.Send(A, frame)
			var delivered, decodable int
			for {
				got, err := link.Recv(B)
				if err != nil {
					break
				}
				delivered++
				if _, _, err := Decode(got); err == nil {
					decodable++
				}
			}
			wantDelivered := 0
			if !d.Drop {
				wantDelivered = 1
				if d.Duplicate {
					wantDelivered = 2
				}
			}
			if delivered != wantDelivered {
				t.Errorf("delivered %d frames, want %d", delivered, wantDelivered)
			}
			wantDecodable := wantDelivered
			if d.Corrupt {
				wantDecodable = 0
			}
			if decodable != wantDecodable {
				t.Errorf("%d frames decodable, want %d", decodable, wantDecodable)
			}
		})
	}
}

func TestReorderedDuplicateArrivesTwice(t *testing.T) {
	// End to end: a reply that is both duplicated and reordered must
	// still reach the client twice — one copy answers the call, the
	// other is discarded as a duplicate, not lost.
	link := NewLink(ipc.Ethernet10)
	script(link).Set(2, faultplane.Decision{Duplicate: true, Reorder: true}) // the reply frame
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(1, echoRaw)
	out, err := client.Call(server, 1, "twice")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "twice" {
		t.Errorf("reply = %v", out)
	}
	if client.Stats().Retries != 0 {
		t.Errorf("retries = %d; the duplicated+reordered reply should have arrived promptly", client.Stats().Retries)
	}
	// The second copy is still queued for the client.
	if _, err := link.RecvClient(A, client.ClientID); err != nil {
		t.Errorf("duplicate copy missing: %v", err)
	}
}

func TestCorruptFrameDamagesBareHeader(t *testing.T) {
	// A scripted corruption must damage even a frame with no payload
	// (it flips the checksum field), not silently deliver it intact.
	link := NewLink(ipc.Ethernet10)
	script(link).Corrupt(1)
	frame, err := Encode(Header{Kind: KindCall, CallID: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != headerBytes {
		t.Fatalf("empty call frame is %d bytes, want bare %d-byte header", len(frame), headerBytes)
	}
	link.Send(A, frame)
	got, err := link.Recv(B)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(got); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted bare-header frame decoded as %v, want checksum rejection", err)
	}
}

func TestRecvClientKeepsOtherClientsReplies(t *testing.T) {
	// Two clients' replies queued at once: each client must receive its
	// own, with the other's left intact — not drained and discarded as
	// a stale frame.
	link := NewLink(ipc.Ethernet10)
	c1 := NewClient(link, A)
	c2 := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(1, echoRaw)

	for _, c := range []*Client{c1, c2} {
		payload, err := AppendMarshal(nil, fmt.Sprintf("for-%d", c.ClientID))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: c.ClientID}, payload)
		if err != nil {
			t.Fatal(err)
		}
		link.Send(A, frame)
	}
	server.Poll() // both replies are now in flight

	// c2 collects first; c1's reply must survive it.
	for _, c := range []*Client{c2, c1} {
		payload, _, err := c.awaitReplyFrame(nil, 1)
		if err != nil {
			t.Fatalf("client %d: %v", c.ClientID, err)
		}
		a := NewArgs(payload)
		if !a.Bool() {
			t.Fatalf("client %d: reply not ok", c.ClientID)
		}
		if want := fmt.Sprintf("for-%d", c.ClientID); a.String() != want || a.Err() != nil {
			t.Errorf("client %d received the wrong reply (want %q, err %v)", c.ClientID, want, a.Err())
		}
		if st := c.Stats(); st.StaleFrames != 0 {
			t.Errorf("client %d discarded %d frames as stale", c.ClientID, st.StaleFrames)
		}
	}
}

func TestDeadlineCheckedBeforeSuccess(t *testing.T) {
	// A huge injected delay on the very first attempt must surface as a
	// blown deadline even though the reply arrives — the old client only
	// examined the budget when attempt > 0.
	link := NewLink(ipc.Ethernet10)
	script(link).Set(1, faultplane.Decision{DelayMicros: 1e6}) // the first call frame
	client := NewClient(link, A)
	client.DeadlineMicros = 1000
	server := NewServer(link, B)
	server.RegisterRaw(1, echoRaw)
	_, err := client.Call(server, 1, "late")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if st := client.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("deadline exceeded count = %d, want 1", st.DeadlineExceeded)
	}
	// The call executed (at-most-once's caveat: an abandoned call may
	// still have run); what matters is that the budget was enforced.
	if st := server.Stats(); st.Served != 1 {
		t.Errorf("served = %d, want 1", st.Served)
	}
}

func TestStatsAddSumsEveryField(t *testing.T) {
	// Reflection over the struct so a future counter that is forgotten
	// in Add fails here instead of silently undercounting.
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int:
			va.Field(i).SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64((i + 1) * 100))
		case reflect.Float64:
			va.Field(i).SetFloat(float64(i + 1))
			vb.Field(i).SetFloat(float64((i + 1) * 100))
		default:
			t.Fatalf("unexpected field kind %v in Stats", va.Field(i).Kind())
		}
	}
	sum := a.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		want := float64((i + 1) * 101)
		var got float64
		switch vs.Field(i).Kind() {
		case reflect.Int:
			got = float64(vs.Field(i).Int())
		case reflect.Float64:
			got = vs.Field(i).Float()
		}
		if got != want {
			t.Errorf("field %s: Add produced %v, want %v", vs.Type().Field(i).Name, got, want)
		}
	}
}

func TestNilCachedReplyIsSuppressedNotSent(t *testing.T) {
	// The EncodeErrors path caches the execution with a nil frame. A
	// retransmission must be suppressed without re-executing — and
	// without transmitting a nil frame.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	client.MaxRetries = 2
	server := NewServer(link, B)
	executions := 0
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		executions++
		rep.Bytes(make([]byte, maxPayload+1)) // unencodable reply
		return nil
	})
	if _, err := client.Call(server, 1); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	base := server.Stats()
	if base.EncodeErrors != 1 || executions != 1 {
		t.Fatalf("encode errors = %d, executions = %d", base.EncodeErrors, executions)
	}

	// A late retransmission of the same call, by hand.
	frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: client.ClientID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	link.Send(A, frame)
	server.Poll()
	after := server.Stats()
	if after.DuplicatesSuppressed != base.DuplicatesSuppressed+1 {
		t.Errorf("duplicates suppressed = %d, want %d", after.DuplicatesSuppressed, base.DuplicatesSuppressed+1)
	}
	if executions != 1 {
		t.Errorf("handler executed %d times; the nil-frame cache entry must still suppress", executions)
	}
	if _, err := link.RecvClient(A, client.ClientID); !errors.Is(err, ErrEmpty) {
		t.Errorf("a frame was transmitted for the nil cached reply: %v", err)
	}
}

func TestReplyCacheLRUEviction(t *testing.T) {
	// A 2-client cache serving 3 clients evicts the least recently used
	// entry: the evicted client's retransmission re-executes (the
	// narrowed at-most-once window of a bounded cache), while a cached
	// client's retransmission is still suppressed.
	link := NewLink(ipc.Ethernet10)
	server := NewServer(link, B)
	server.ConfigureReplyCache(2)
	executions := 0
	server.RegisterRaw(1, counting(&executions))
	c1 := NewClient(link, A)
	c2 := NewClient(link, A)
	c3 := NewClient(link, A)
	for _, c := range []*Client{c1, c2, c3} {
		if _, err := c.Call(server, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := server.Stats(); st.RepliesEvicted != 1 {
		t.Fatalf("replies evicted = %d, want 1 (c1's entry)", st.RepliesEvicted)
	}

	resend := func(c *Client) {
		t.Helper()
		frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1, ClientID: c.ClientID}, nil)
		if err != nil {
			t.Fatal(err)
		}
		link.Send(A, frame)
		server.Poll()
	}

	// c3 is cached: suppressed, no re-execution.
	before := executions
	resend(c3)
	if executions != before {
		t.Errorf("cached client's duplicate re-executed")
	}
	if st := server.Stats(); st.DuplicatesSuppressed != 1 {
		t.Errorf("duplicates suppressed = %d, want 1", st.DuplicatesSuppressed)
	}

	// c1 was evicted: its duplicate is indistinguishable from a fresh
	// call and re-executes — the documented bounded-cache tradeoff.
	before = executions
	resend(c1)
	if executions != before+1 {
		t.Errorf("evicted client's duplicate did not re-execute (executions %d → %d)", before, executions)
	}
}

func TestManyClientsConcurrentChaosEcho(t *testing.T) {
	// The soak at the wire layer: 8 simulated clients, interleaved
	// round-robin, share one link and one server under the reference
	// chaos policy (≥20% combined loss/duplication/reordering). Every
	// call must return its caller's own payload, and the non-idempotent
	// handler must run exactly once per call in aggregate.
	const (
		nClients = 8
		calls    = 60
	)
	link := NewLink(ipc.Ethernet10)
	plane := faultplane.New(faultplane.Chaos(1991))
	link.SetFaultPlane(plane)
	server := NewServer(link, B)
	executions := 0
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		executions++
		return echoRaw(h, a, rep)
	})

	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = NewClient(link, A)
		clients[i].MaxRetries = 64
	}
	roundRobin(t, nClients, calls, func(i, n int) error {
		c := clients[i]
		out, err := c.Call(server, 1, int64(c.ClientID), int64(n))
		if err != nil {
			return err
		}
		if out[0].(int64) != int64(c.ClientID) || out[1].(int64) != int64(n) {
			return fmt.Errorf("got another caller's reply: %v", out)
		}
		return nil
	})
	if executions != nClients*calls {
		t.Errorf("handler executed %d times for %d calls — at-most-once violated", executions, nClients*calls)
	}
	c := plane.Counts()
	if c.Dropped == 0 || c.Duplicated == 0 || c.Reordered == 0 || c.Corrupted == 0 {
		t.Errorf("chaos plane inert: %+v", c)
	}
	retries := 0
	for _, cl := range clients {
		retries += cl.Stats().Retries
	}
	if retries == 0 || server.Stats().DuplicatesSuppressed == 0 {
		t.Errorf("no retransmission traffic: %d retries, server %+v", retries, server.Stats())
	}
}
