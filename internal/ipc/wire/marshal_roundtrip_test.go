package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTripValues covers every supported kind at its edges. int is
// absent from the expectation side: the contract says int marshals as
// int64 and decodes as int64.
var roundTripValues = []interface{}{
	uint32(0), uint32(1), uint32(math.MaxUint32),
	uint64(0), uint64(math.MaxUint64),
	int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
	false, true,
	float64(0), 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
	"", "x", "héllo wörld", strings.Repeat("s", 1000),
	[]byte{}, []byte{0}, []byte{0xFF, 0x00, 0x7F}, bytes.Repeat([]byte{0xAB}, 1000),
}

func TestMarshalRoundTripExhaustive(t *testing.T) {
	// Every supported type round-trips to the same type and value: the
	// documented contract — uint32 and uint64 stay unsigned at width,
	// int/int64 come back int64 — can't silently regress.
	in := append([]interface{}{}, roundTripValues...)
	in = append(in, int(-42)) // marshals as int64
	want := append([]interface{}{}, roundTripValues...)
	want = append(want, int64(-42))

	data, err := AppendMarshal(nil, in...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(out), len(want))
	}
	for i := range want {
		if reflect.TypeOf(out[i]) != reflect.TypeOf(want[i]) {
			t.Errorf("value %d: decoded type %T, want %T", i, out[i], want[i])
			continue
		}
		if !reflect.DeepEqual(out[i], want[i]) {
			t.Errorf("value %d: decoded %#v, want %#v", i, out[i], want[i])
		}
	}

	// Re-marshalling the decoded values reproduces the stream byte for
	// byte: the decoded types are exactly the marshalled ones.
	again, err := AppendMarshal(nil, out...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("re-marshalling decoded values changed the byte stream")
	}
}

func TestArgsRoundTripExhaustive(t *testing.T) {
	// The typed cursor agrees with the typed appenders over the same
	// edge values the reflective path covers.
	var buf []byte
	for _, v := range roundTripValues {
		switch v := v.(type) {
		case uint32:
			buf = AppendUint32(buf, v)
		case uint64:
			buf = AppendUint64(buf, v)
		case int64:
			buf = AppendInt64(buf, v)
		case bool:
			buf = AppendBool(buf, v)
		case float64:
			buf = AppendFloat64(buf, v)
		case string:
			buf = AppendString(buf, v)
		case []byte:
			buf = AppendBytes(buf, v)
		}
	}
	a := NewArgs(buf)
	for i, v := range roundTripValues {
		var got interface{}
		switch v.(type) {
		case uint32:
			got = a.Uint32()
		case uint64:
			got = a.Uint64()
		case int64:
			got = a.Int64()
		case bool:
			got = a.Bool()
		case float64:
			got = a.Float64()
		case string:
			got = a.String()
		case []byte:
			got = append([]byte{}, a.Bytes()...)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("value %d: cursor decoded %#v, want %#v", i, got, v)
		}
	}
	if err := a.Err(); err != nil {
		t.Fatalf("cursor error after clean stream: %v", err)
	}
	if a.More() {
		t.Error("cursor reports more values past the end")
	}
}

func TestArgsTypeMismatchPoisons(t *testing.T) {
	buf := AppendInt64(nil, 7)
	a := NewArgs(buf)
	if got := a.Uint32(); got != 0 {
		t.Errorf("mismatched getter returned %d, want 0", got)
	}
	if !errors.Is(a.Err(), ErrBadEncoding) {
		t.Errorf("err = %v, want ErrBadEncoding", a.Err())
	}
	// Poisoned cursors stay poisoned and keep returning zeros.
	if got := a.Int64(); got != 0 {
		t.Errorf("getter after poison returned %d, want 0", got)
	}
	if a.More() {
		t.Error("poisoned cursor claims more values")
	}
	// A string view reads a string only: a byte buffer differs from one
	// in its tag alone.
	b := NewArgs(AppendBytes(nil, []byte("/d")))
	if v := b.StringBytes(); v != nil || !errors.Is(b.Err(), ErrBadEncoding) {
		t.Errorf("StringBytes of a byte buffer = %q, %v; want nil, ErrBadEncoding", v, b.Err())
	}
}

func TestArgsTruncationPoisons(t *testing.T) {
	full := AppendString(nil, "hello")
	for cut := 0; cut < len(full); cut++ {
		a := NewArgs(full[:cut])
		if cut == 0 {
			// Empty stream: no values, no error.
			if a.More() || a.Err() != nil {
				t.Errorf("cut 0: More=%v Err=%v", a.More(), a.Err())
			}
			continue
		}
		_ = a.String()
		if !errors.Is(a.Err(), ErrBadEncoding) {
			t.Errorf("cut %d: err = %v, want ErrBadEncoding", cut, a.Err())
		}
	}
}

func TestUnmarshalClampsLengthPrefix(t *testing.T) {
	// A corrupted or crafted length prefix above maxPayload must be
	// rejected outright — on 32-bit platforms int(huge uint32) goes
	// negative and would slip past the bounds check.
	for _, n := range []uint32{maxPayload + 1, 1 << 24, 0x80000000, math.MaxUint32} {
		for _, tg := range []tag{tagString, tagBytes} {
			data := []byte{byte(tg)}
			data = binary.BigEndian.AppendUint32(data, n)
			data = append(data, make([]byte, 64)...) // some body, far short of n
			if _, err := Unmarshal(data); !errors.Is(err, ErrBadEncoding) {
				t.Errorf("tag %d length %d: err = %v, want ErrBadEncoding", tg, n, err)
			}
			a := NewArgs(data)
			if tg == tagString {
				_ = a.String()
			} else {
				_ = a.Bytes()
			}
			if !errors.Is(a.Err(), ErrBadEncoding) {
				t.Errorf("tag %d length %d: cursor err = %v, want ErrBadEncoding", tg, n, a.Err())
			}
		}
	}
}

func TestEncodePayloadMustFitLengthField(t *testing.T) {
	// Regression: maxPayload used to be 1<<16, one past what the u16
	// header length field can carry — a payload of exactly 64 KiB
	// encoded a frame whose header claimed length 0 and which no
	// receiver could ever decode. The bound is now 1<<16-1 and the
	// largest legal payload round-trips.
	big := bytes.Repeat([]byte{0x5A}, maxPayload)
	frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 2, ClientID: 3}, big)
	if err != nil {
		t.Fatalf("maxPayload payload rejected: %v", err)
	}
	h, payload, err := Decode(frame)
	if err != nil {
		t.Fatalf("maxPayload frame failed to decode: %v", err)
	}
	if h.Payload != maxPayload || !bytes.Equal(payload, big) {
		t.Fatal("maxPayload payload did not round-trip")
	}
	if _, err := Encode(Header{Kind: KindCall}, append(big, 0)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("maxPayload+1 payload: err = %v, want ErrTooLarge", err)
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	payload := AppendString(AppendInt64(nil, 99), "body")
	h := Header{Kind: KindReply, CallID: 7, ProcID: 3, ClientID: 2, Epoch: 5}
	want, err := Encode(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendEncode(make([]byte, 0, 128), h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("AppendEncode and Encode produced different frames")
	}
	// The in-place builder agrees too.
	frame := BeginFrame(nil)
	frame = AppendInt64(frame, 99)
	frame = AppendString(frame, "body")
	frame, err = FinishFrame(frame, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Error("BeginFrame/FinishFrame produced a different frame")
	}
}

func TestCodecHotPathAllocationFree(t *testing.T) {
	// The acceptance bar for the hot path: building a small call frame,
	// decoding it, and reading its arguments through the cursor performs
	// zero allocations in the codec once buffers are warm — a string
	// argument included, read as a view.
	buf := make([]byte, 0, 256)
	h := Header{Kind: KindCall, CallID: 9, ProcID: 4, ClientID: 1}
	allocs := testing.AllocsPerRun(200, func() {
		frame := BeginFrame(buf[:0])
		frame = AppendInt64(frame, 42)
		frame = AppendInt64(frame, 4096)
		frame = AppendString(frame, "/d/a")
		frame, err := FinishFrame(frame, h)
		if err != nil {
			t.Fatal(err)
		}
		dh, payload, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if dh.CallID != 9 {
			t.Fatal("header mangled")
		}
		a := NewArgs(payload)
		if a.Int64() != 42 || a.Int64() != 4096 || string(a.StringBytes()) != "/d/a" || a.Err() != nil {
			t.Fatal("arguments mangled")
		}
	})
	if allocs != 0 {
		t.Errorf("codec hot path allocates %.1f times per op, want 0", allocs)
	}
}

func TestReplyBuilderAllocationFree(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 1024)
	buf := make([]byte, 0, 2048)
	h := Header{Kind: KindReply, CallID: 3, ProcID: 4, ClientID: 1, Epoch: 1}
	allocs := testing.AllocsPerRun(200, func() {
		rep := Reply{frame: AppendBool(BeginFrame(buf[:0]), true)}
		rep.Bytes(data)
		frame, err := FinishFrame(rep.frame, h)
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		a := NewArgs(payload)
		if !a.Bool() || len(a.Bytes()) != 1024 || a.Err() != nil {
			t.Fatal("reply mangled")
		}
	})
	if allocs != 0 {
		t.Errorf("reply build/decode allocates %.1f times per op, want 0", allocs)
	}
	// Rewriting the reply as a failure whose text names a path held in
	// bytes builds no text.
	name := []byte("/z00042")
	allocs = testing.AllocsPerRun(200, func() {
		rep := Reply{frame: AppendBool(BeginFrame(buf[:0]), true)}
		FailReply(&rep, "fs: file exists", ": ", name)
		if _, err := FinishFrame(rep.frame, h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a failure reply allocates %.1f times per op, want 0", allocs)
	}
}
