package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"archos/internal/faultplane"
	"archos/internal/ipc"
)

func TestChecksumKnownProperties(t *testing.T) {
	if Checksum(nil) != 0xFFFF {
		t.Errorf("checksum of empty = %#x, want 0xFFFF", Checksum(nil))
	}
	a := Checksum([]byte("the interaction of architecture"))
	b := Checksum([]byte("the interaction of architecturf"))
	if a == b {
		t.Error("single-byte change not reflected in checksum")
	}
	// Odd-length handling.
	if Checksum([]byte{0x12}) == Checksum([]byte{0x13}) {
		t.Error("odd trailing byte ignored")
	}
}

func TestChecksumDetectsSingleBitFlips(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		p := int(pos) % len(data)
		orig := Checksum(data)
		data[p] ^= 1 << (bit % 8)
		changed := Checksum(data)
		data[p] ^= 1 << (bit % 8)
		return orig != changed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("hello, firefly")
	frame, err := Encode(Header{Kind: KindCall, CallID: 7, ProcID: 3}, payload)
	if err != nil {
		t.Fatal(err)
	}
	h, got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindCall || h.CallID != 7 || h.ProcID != 3 || h.Payload != len(payload) {
		t.Errorf("header = %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestMsgKindWireBytes(t *testing.T) {
	// The kind byte is wire format: a frame's kind must keep its value
	// when a kind is retired (3 stays unassigned).
	for k, want := range map[MsgKind]byte{KindCall: 1, KindReply: 2, KindBatch: 4, KindReject: 5} {
		frame, err := Encode(Header{Kind: k}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if frame[3] != want {
			t.Errorf("%v frame carries kind byte %d, want %d", k, frame[3], want)
		}
	}
	if got := MsgKind(3).String(); got != "kind(3)" {
		t.Errorf("retired kind 3 = %q, want kind(3)", got)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	frame, _ := Encode(Header{Kind: KindReply, CallID: 1}, []byte("payload"))

	// Bit flip in the payload.
	bad := append([]byte(nil), frame...)
	bad[headerBytes] ^= 0x01
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted payload: %v, want checksum error", err)
	}
	// Bit flip in the header.
	bad = append([]byte(nil), frame...)
	bad[5] ^= 0x80
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted header: %v, want checksum error", err)
	}
	// Truncation.
	if _, _, err := Decode(frame[:headerBytes+2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if _, _, err := Decode(frame[:4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	// Wrong magic.
	bad = append([]byte(nil), frame...)
	bad[0] = 0
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Wrong version.
	bad = append([]byte(nil), frame...)
	bad[2] = 9
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := Encode(Header{Kind: KindCall}, make([]byte, maxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	in := []interface{}{uint32(42), uint64(1 << 40), int64(-7), true, false, 3.25, "andrew", []byte{1, 2, 3}}
	data, err := AppendMarshal(nil, in...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d values, want %d", len(out), len(in))
	}
	if out[0].(uint32) != 42 || out[1].(uint64) != 1<<40 || out[2].(int64) != -7 {
		t.Errorf("integers wrong: %v", out[:3])
	}
	if out[3].(bool) != true || out[4].(bool) != false {
		t.Errorf("bools wrong: %v", out[3:5])
	}
	if out[5].(float64) != 3.25 || out[6].(string) != "andrew" {
		t.Errorf("float/string wrong: %v", out[5:7])
	}
	if !bytes.Equal(out[7].([]byte), []byte{1, 2, 3}) {
		t.Errorf("bytes wrong: %v", out[7])
	}
}

func TestMarshalIntBecomesInt64(t *testing.T) {
	data, err := AppendMarshal(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil || len(out) != 1 {
		t.Fatalf("unmarshal: %v %v", out, err)
	}
	if out[0].(int64) != 7 {
		t.Errorf("int round trip = %v", out[0])
	}
}

func TestMarshalRejectsUnsupported(t *testing.T) {
	if _, err := AppendMarshal(nil, struct{}{}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("struct: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0xFF},                             // unknown tag
		{byte(tagU32), 1, 2},               // short body
		{byte(tagString), 0, 0, 0, 9, 'x'}, // length beyond buffer
	} {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("unmarshal(%v) accepted garbage", data)
		}
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(a uint32, b uint64, c int64, d bool, e float64, s string, bs []byte) bool {
		if math.IsNaN(e) {
			e = 0
		}
		data, err := AppendMarshal(nil, a, b, c, d, e, s, bs)
		if err != nil {
			return false
		}
		out, err := Unmarshal(data)
		if err != nil || len(out) != 7 {
			return false
		}
		if bs == nil {
			bs = []byte{}
		}
		got, ok := out[6].([]byte)
		if !ok {
			return false
		}
		if got == nil {
			got = []byte{}
		}
		return out[0] == a && out[1] == b && out[2] == c && out[3] == d &&
			out[4] == e && out[5] == s && bytes.Equal(got, bs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func newPair() (*Link, *Client, *Server) {
	link := NewLink(ipc.Ethernet10)
	client := NewClient(link, A)
	server := NewServer(link, B)
	return link, client, server
}

func TestRPCEcho(t *testing.T) {
	link, client, server := newPair()
	server.RegisterRaw(1, echoRaw)
	out, err := client.Call(server, 1, "ping", int64(99))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []interface{}{"ping", int64(99)}) {
		t.Errorf("echo = %v", out)
	}
	if server.Stats().Served != 1 || client.Stats().Retries != 0 {
		t.Errorf("served=%d retries=%d", server.Stats().Served, client.Stats().Retries)
	}
	if link.Clock() <= 0 {
		t.Error("wire clock did not advance")
	}
}

func TestRPCComputation(t *testing.T) {
	_, client, server := newPair()
	server.RegisterRaw(2, func(h Header, a *Args, rep *Reply) error {
		sum := int64(0)
		for a.More() {
			sum += a.Int64()
		}
		rep.Int64(sum)
		return nil
	})
	out, err := client.Call(server, 2, int64(3), int64(4), int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 12 {
		t.Errorf("sum = %v", out[0])
	}
}

func TestRPCUnknownProcedure(t *testing.T) {
	_, client, server := newPair()
	_, err := client.Call(server, 42, "x")
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != ErrNoProc.Error() {
		t.Fatalf("err = %v, want RemoteError %q", err, ErrNoProc)
	}
}

func TestUnknownProcedureDrawsPreReplyCrash(t *testing.T) {
	// The ErrNoProc reply leaves through the pre-reply crash window like
	// every other reply: a seeded crash schedule must see the same draw
	// sequence whether or not the procedure is bound.
	_, client, server := newPair()
	server.SetCrasher(&scriptedCrasher{point: faultplane.CrashPreReply, fire: map[int]bool{1: true}})
	client.MaxRetries = 1
	if _, err := client.Call(server, 42, "x"); !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed (the server died before replying)", err)
	}
	if st := server.Stats(); st.Crashes != 1 || st.Served != 0 {
		t.Errorf("stats = %+v, want 1 crash and nothing served", st)
	}
}

func TestRPCHandlerError(t *testing.T) {
	_, client, server := newPair()
	server.RegisterRaw(3, func(h Header, a *Args, rep *Reply) error {
		return errors.New("no such file")
	})
	_, err := client.Call(server, 3)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "no such file" {
		t.Fatalf("err = %v", err)
	}
}

func TestRPCRetransmitsOnCorruption(t *testing.T) {
	// The first transmitted frame (the call) is corrupted in flight;
	// the server's checksum rejects it and the client's retry succeeds.
	link, client, server := newPair()
	server.RegisterRaw(1, echoRaw)
	script(link).Corrupt(1)
	out, err := client.Call(server, 1, "once more")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "once more" {
		t.Errorf("reply = %v", out)
	}
	if client.Stats().Retries != 1 {
		t.Errorf("retries = %d, want 1", client.Stats().Retries)
	}
	if server.Stats().BadFrames != 1 {
		t.Errorf("server rejected %d frames, want 1", server.Stats().BadFrames)
	}
}

func TestRPCRetransmitsOnLoss(t *testing.T) {
	link, client, server := newPair()
	server.RegisterRaw(1, echoRaw)
	script(link).Drop(1) // lose the call
	script(link).Drop(3) // then lose the retry's reply (frame 2 is the retry call)
	out, err := client.Call(server, 1, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int64) != 5 {
		t.Errorf("reply = %v", out)
	}
	if client.Stats().Retries != 2 {
		t.Errorf("retries = %d, want 2", client.Stats().Retries)
	}
}

func TestRPCGivesUpAfterMaxRetries(t *testing.T) {
	link, client, server := newPair()
	server.RegisterRaw(1, echoRaw)
	client.MaxRetries = 2
	for i := 1; i <= 10; i++ {
		script(link).Drop(i)
	}
	if _, err := client.Call(server, 1); !errors.Is(err, ErrCallFailed) {
		t.Errorf("err = %v, want ErrCallFailed", err)
	}
}

func TestWireClockMatchesCostModel(t *testing.T) {
	// The functional transport and the Table 3 cost model share the
	// network model: a call+reply's wire time equals two PacketMicros.
	link, client, server := newPair()
	server.RegisterRaw(1, echoRaw)
	payload, _ := AppendMarshal(nil, "x")
	callFrame, _ := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 1}, payload)
	if _, err := client.Call(server, 1, "x"); err != nil {
		t.Fatal(err)
	}
	reply, _ := AppendMarshal(nil, true, "x")
	replyFrame, _ := Encode(Header{Kind: KindReply, CallID: 1, ProcID: 1}, reply)
	want := ipc.Ethernet10.PacketMicros(len(callFrame)) + ipc.Ethernet10.PacketMicros(len(replyFrame))
	if diff := math.Abs(link.Clock() - want); diff > 1e-9 {
		t.Errorf("wire clock %.3f µs, want %.3f", link.Clock(), want)
	}
}

// TestRecvClientHeaderRecyclesWithoutAllocating: the header-only
// receive returns an intact reply's verified header and a damaged
// one's decode error, and sends both buffers back to the stack's free
// list. The link copies every sent frame into a recycled buffer, so a
// round that sends and receives two frames allocates nothing once each
// receive recycles what it took.
func TestRecvClientHeaderRecyclesWithoutAllocating(t *testing.T) {
	link := NewLink(ipc.Ethernet10)
	c := NewClient(link, A)
	want := Header{Kind: KindReply, CallID: 7, ProcID: 3, ClientID: c.ClientID, Payload: len("payload")}
	frame, err := Encode(want, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun makes one warm-up call and then rounds more; the
	// second frame of every round is damaged in flight.
	const rounds = 100
	for n := 2; n <= 2*(rounds+1); n += 2 {
		script(link).Corrupt(n)
	}
	round := func() {
		link.Send(B, frame)
		if h, err := link.RecvClientHeader(A, c.ClientID); err != nil || h != want {
			t.Fatalf("intact reply: header %+v, err %v; want %+v", h, err, want)
		}
		link.Send(B, frame)
		if _, err := link.RecvClientHeader(A, c.ClientID); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("damaged reply: err %v, want ErrBadChecksum", err)
		}
		if _, err := link.RecvClientHeader(A, c.ClientID); !errors.Is(err, ErrEmpty) {
			t.Fatalf("drained queue: err %v, want ErrEmpty", err)
		}
	}
	if raceEnabled {
		round() // allocation counts are inflated under the race detector
		return
	}
	if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 {
		t.Errorf("a round of two received frames allocates %.1f, want 0: received buffers are not recycled", allocs)
	}
}
