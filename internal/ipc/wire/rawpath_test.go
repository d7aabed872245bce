package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestCallRawRoundTrip(t *testing.T) {
	// Every supported kind through the raw path: typed writers on the
	// client, cursor + reply builder in the handler, cursor again on the
	// results.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(7, func(h Header, a *Args, rep *Reply) error {
		u32, u64, i64 := a.Uint32(), a.Uint64(), a.Int64()
		b, f, s, by := a.Bool(), a.Float64(), a.String(), a.Bytes()
		if err := a.Err(); err != nil {
			return err
		}
		rep.Uint32(u32 + 1)
		rep.Uint64(u64 + 1)
		rep.Int64(i64 - 1)
		rep.Bool(!b)
		rep.Float64(f * 2)
		rep.String(s + "!")
		rep.Bytes(by)
		return nil
	})
	w := client.NewCallArgs()
	w.Uint32(5)
	w.Uint64(1 << 40)
	w.Int64(-9)
	w.Bool(false)
	w.Float64(1.5)
	w.String("path")
	w.Bytes([]byte{1, 2, 3})
	res, err := client.CallRaw(server, 7, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uint32() != 6 || res.Uint64() != 1<<40+1 || res.Int64() != -10 ||
		res.Bool() != true || res.Float64() != 3.0 || res.String() != "path!" ||
		!bytes.Equal(res.Bytes(), []byte{1, 2, 3}) {
		t.Error("raw round trip mangled a value")
	}
	if res.Err() != nil || res.More() {
		t.Errorf("result cursor: err=%v more=%v", res.Err(), res.More())
	}
}

func TestRawBoxedInterop(t *testing.T) {
	// The boxed Call adapter and CallRaw write one wire format: a boxed
	// call is served by the same raw handler, frame for frame.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		rep.Int64(a.Int64() * 2)
		return a.Err()
	})

	out, err := client.Call(server, 1, int64(21)) // boxed client → raw handler
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 42 {
		t.Errorf("boxed→raw: got %v, want 42", out[0])
	}
}

func TestCallRawErrorReply(t *testing.T) {
	// Handler errors surface as RemoteError through the raw path, same
	// as boxed; malformed arguments (a cursor fault the handler ignores)
	// become an error reply rather than a half-built success frame.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		return errors.New("nope")
	})
	server.RegisterRaw(2, func(h Header, a *Args, rep *Reply) error {
		rep.Int64(a.Int64()) // caller sends a string: the cursor poisons
		return a.Err()
	})

	w := client.NewCallArgs()
	if _, err := client.CallRaw(server, 1, w); err == nil || err.Error() != "wire: remote: nope" {
		t.Errorf("handler error: got %v, want remote nope", err)
	}
	var re *RemoteError
	w = client.NewCallArgs()
	w.String("not an int")
	if _, err := client.CallRaw(server, 2, w); !errors.As(err, &re) {
		t.Errorf("type mismatch: got %v, want RemoteError", err)
	}
	// Unregistered procedures answer ErrNoProc through the raw client
	// exactly as through the boxed one.
	w = client.NewCallArgs()
	if _, err := client.CallRaw(server, 99, w); !errors.As(err, &re) || re.Msg != ErrNoProc.Error() {
		t.Errorf("no proc: got %v", err)
	}
}

func TestFailReplyMatchesErrorReply(t *testing.T) {
	// A handler that writes its failure with FailReply sends the reply
	// returning an error of the joined text would: the same payload,
	// byte for byte, whatever results it had appended first.
	for _, c := range []struct{ msg, sep, name string }{
		{"fs: file exists", ": ", "/z00042"},
		{"fs: no such file or directory", ": ", "/with space/ünïcode"},
		{"fs: bad file descriptor", "", ""},
		{"", "", ""},
	} {
		text := c.msg + c.sep + c.name
		if got, want := AppendText([]byte{9}, c.msg, c.sep, c.name), AppendString([]byte{9}, text); !bytes.Equal(got, want) {
			t.Errorf("AppendText(%q, %q, %q) = %x, AppendString of the text %x", c.msg, c.sep, c.name, got, want)
		}
		if got, want := AppendText(nil, c.msg, c.sep, []byte(c.name)), AppendString(nil, text); !bytes.Equal(got, want) {
			t.Errorf("AppendText over bytes (%q, %q, %q) = %x, want %x", c.msg, c.sep, c.name, got, want)
		}
		link := NewLink(ipc.Ethernet10)
		client := NewClient(link, A)
		server := NewServer(link, B)
		server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
			rep.Int64(99)
			return errors.New(text)
		})
		server.RegisterRaw(2, func(h Header, a *Args, rep *Reply) error {
			rep.Int64(99)
			FailReply(rep, c.msg, c.sep, []byte(c.name))
			return nil
		})
		server.RegisterRaw(3, func(h Header, a *Args, rep *Reply) error {
			FailReply(rep, c.msg, c.sep, c.name)
			return nil
		})
		var payloads [][]byte
		for proc := uint32(1); proc <= 3; proc++ {
			frame, err := Encode(Header{Kind: KindCall, CallID: proc, ProcID: proc, ClientID: client.ClientID}, nil)
			if err != nil {
				t.Fatal(err)
			}
			link.Send(A, frame)
			server.Poll()
			reply, err := link.RecvClient(A, client.ClientID)
			if err != nil {
				t.Fatal(err)
			}
			_, payload, err := Decode(reply)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, bytes.Clone(payload))
		}
		want := AppendString(AppendBool(nil, false), text)
		for i, p := range payloads {
			if !bytes.Equal(p, want) {
				t.Errorf("%q: proc %d replied %x, want %x", text, i+1, p, want)
			}
		}
	}
}

func TestCallRawServerCrashWindow(t *testing.T) {
	// A raw handler aborting with ErrServerCrashed kills the server in
	// the pre-apply window, identical to the boxed contract: no reply,
	// nothing cached, the server dead until a restart hook runs.
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	client.MaxRetries = 2
	server := NewServer(link, B)
	server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
		rep.Int64(99) // partial results must not leak into a reply
		return ErrServerCrashed
	})
	w := client.NewCallArgs()
	_, err := client.CallRaw(server, 1, w)
	if !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if !server.Crashed() {
		t.Error("server not crashed after ErrServerCrashed from a raw handler")
	}
	if st := server.Stats(); st.Crashes != 1 || st.Served != 0 {
		t.Errorf("crashes = %d, served = %d; want 1, 0", st.Crashes, st.Served)
	}
}

func TestCallRawManyClientsChaos(t *testing.T) {
	// The raw path with many simulated clients on one link, interleaved
	// round-robin: retransmission, duplicate suppression, and reply
	// routing all run through recycled frames, and the non-idempotent
	// handler still executes exactly once per call. The chaos input runs
	// the reference fault policy. The clean input is the throughput
	// probe's load — 8 clients × 2000 calls to a handler that checksums
	// 2 KiB four times — which must finish with no failed call: driven
	// from 8 goroutines instead, a call another goroutine was executing
	// looked lost, and the same load failed some rounds.
	work := make([]byte, 2048)
	for i := range work {
		work[i] = byte(i)
	}
	for _, tc := range []struct {
		name            string
		chaosSeed       int64 // 0: a clean link
		nClients, calls int
		checksums       int // passes over work per call
	}{
		{"chaos", 2025, 8, 40, 0},
		{"clean-probe-load", 0, 8, 2000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			link := NewLink(ipc.Ethernet10)
			var plane *faultplane.Plane
			if tc.chaosSeed != 0 {
				plane = faultplane.New(faultplane.Chaos(tc.chaosSeed))
				link.SetFaultPlane(plane)
			}
			server := NewServer(link, B)
			executions := 0
			server.RegisterRaw(1, func(h Header, a *Args, rep *Reply) error {
				id, n := a.Int64(), a.Int64()
				if err := a.Err(); err != nil {
					return err
				}
				for j := 0; j < tc.checksums; j++ {
					Checksum(work)
				}
				executions++
				rep.Int64(id)
				rep.Int64(n)
				return nil
			})
			clients := make([]*Client, tc.nClients)
			for i := range clients {
				clients[i] = NewClient(link, A)
				clients[i].MaxRetries = 64
			}
			roundRobin(t, tc.nClients, tc.calls, func(i, n int) error {
				c := clients[i]
				w := c.NewCallArgs()
				w.Int64(int64(c.ClientID))
				w.Int64(int64(n))
				res, err := c.CallRaw(server, 1, w)
				if err != nil {
					return err
				}
				if res.Int64() != int64(c.ClientID) || res.Int64() != int64(n) || res.Err() != nil {
					return fmt.Errorf("got another caller's reply (err %v)", res.Err())
				}
				return nil
			})
			if executions != tc.nClients*tc.calls {
				t.Errorf("handler executed %d times for %d calls — at-most-once violated", executions, tc.nClients*tc.calls)
			}
			if plane == nil {
				return
			}
			if c := plane.Counts(); c.Dropped == 0 || c.Duplicated == 0 || c.Corrupted == 0 {
				t.Errorf("chaos plane inert: %+v", c)
			}
		})
	}
}

func TestCallRawAllocsSteady(t *testing.T) {
	// The raw path's whole-call allocation budget is zero. The codec
	// contributes none (pinned separately), the call frame comes from
	// a recycled CallArgs, and the accepted reply frame, which the result
	// cursor views, goes back to the stack's free list when the client
	// places its next call. (Before replies were recycled this call
	// allocated 1: the pool miss replacing the kept frame. The original
	// reflective path allocated 17.)
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	server.RegisterRaw(4, func(h Header, a *Args, rep *Reply) error {
		rep.Int64(a.Int64())
		return a.Err()
	})
	// Warm the free lists.
	for i := 0; i < 8; i++ {
		w := client.NewCallArgs()
		w.Int64(7)
		if _, err := client.CallRaw(server, 4, w); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		w := client.NewCallArgs()
		w.Int64(7)
		res, err := client.CallRaw(server, 4, w)
		if err != nil || res.Int64() != 7 || res.Err() != nil {
			t.Fatalf("call failed: %v", err)
		}
	})
	t.Logf("allocs/op for small raw call: %.1f", allocs)
	if allocs != 0 {
		t.Errorf("small raw call allocates %.1f times per op, want 0", allocs)
	}
}

func TestFailoverCallRawAllocsSteady(t *testing.T) {
	// A FailoverClient places each call through its active endpoint's
	// client, so a steady-state echo allocates nothing either.
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fc, _, _ := replicaPair(t)
	call := func() {
		w := fc.NewCallArgs()
		w.Int64(7)
		res, err := fc.CallRaw(1, w)
		if err != nil || res.Int64() != 0 || res.Err() != nil {
			t.Fatalf("call failed: %v", err)
		}
	}
	for i := 0; i < 8; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("allocs/op for a failover client's raw call: %.1f", allocs)
	if allocs != 0 {
		t.Errorf("failover raw call allocates %.1f times per op, want 0", allocs)
	}
}

func TestCallRawResultValidUntilNextCall(t *testing.T) {
	// The result cursor views the client's reply buffer: it reads the
	// reply intact however it is held, until the same client calls
	// again. Another client's calls never touch it.
	link := NewLink(ipc.Ethernet10)
	server := NewServer(link, B)
	server.RegisterRaw(3, echoRaw)
	a, b := NewClient(link, A), NewClient(link, A)
	call := func(c *Client, v []byte) Args {
		t.Helper()
		w := c.NewCallArgs()
		w.Bytes(v)
		res, err := c.CallRaw(server, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := bytes.Repeat([]byte("kept"), 64)
	res := call(a, want)
	for i := 0; i < 64; i++ {
		call(b, bytes.Repeat([]byte{byte(i)}, len(want)))
	}
	if got := res.Bytes(); !bytes.Equal(got, want) || res.Err() != nil {
		t.Errorf("result read after other clients' calls = %q, %v", got, res.Err())
	}
}
