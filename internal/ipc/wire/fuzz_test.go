package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// The fuzz corpus is seeded with the corruption shapes the fault plane
// actually produces on the wire — single flipped bits at varying
// offsets (a Decision's CorruptOffset flips one payload bit) — plus
// truncations and hostile length prefixes.

// corruptionSeeds returns data plus single-bit-flip variants at a
// spread of offsets, the shape a corrupting Decision injects.
func corruptionSeeds(data []byte) [][]byte {
	out := [][]byte{data}
	for off := 0; off < len(data); off += 1 + len(data)/8 {
		c := append([]byte{}, data...)
		c[off] ^= 1 << uint(off%8)
		out = append(out, c)
	}
	return out
}

func FuzzUnmarshal(f *testing.F) {
	valid, err := AppendMarshal(nil, uint32(7), uint64(1<<40), int64(-9), true, 3.14, "path/name", []byte{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range corruptionSeeds(valid) {
		f.Add(s)
	}
	for cut := 0; cut < len(valid); cut += 3 {
		f.Add(valid[:cut])
	}
	f.Add([]byte{byte(tagString), 0xFF, 0xFF, 0xFF, 0xFF})      // hostile length
	f.Add([]byte{byte(tagBytes), 0x80, 0x00, 0x00, 0x00, 0x41}) // length that overflows int32
	f.Add([]byte{0x00})                                         // unknown tag

	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := Unmarshal(data)
		if err != nil {
			return // rejected is fine; panicking or over-allocating is not
		}
		// Accepted streams re-encode and re-decode to a fixpoint. (Byte
		// identity does not hold — a bool body of 2 decodes true and
		// re-encodes as 1 — but the value stream must be stable.)
		enc, err := AppendMarshal(nil, vals...)
		if err != nil {
			t.Fatalf("re-marshal of decoded values failed: %v", err)
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !fuzzValuesEqual(vals, again) {
			t.Fatalf("decode∘encode not a fixpoint: %#v vs %#v", vals, again)
		}

		// The typed cursor must agree with the reflective decoder on
		// accepted streams.
		a := NewArgs(data)
		for i, v := range vals {
			var got interface{}
			switch v.(type) {
			case uint32:
				got = a.Uint32()
			case uint64:
				got = a.Uint64()
			case int64:
				got = a.Int64()
			case bool:
				// The cursor normalises any nonzero body to true, same
				// as Unmarshal.
				got = a.Bool()
			case float64:
				got = a.Float64()
			case string:
				got = a.String()
			case []byte:
				got = append([]byte{}, a.Bytes()...)
			}
			if a.Err() != nil {
				t.Fatalf("cursor rejected value %d of an Unmarshal-accepted stream: %v", i, a.Err())
			}
			if !fuzzValuesEqual([]interface{}{v}, []interface{}{got}) {
				t.Fatalf("cursor decoded value %d as %#v, Unmarshal as %#v", i, got, v)
			}
		}
		if a.More() {
			t.Fatal("cursor sees values past what Unmarshal decoded")
		}
	})
}

// fuzzValuesEqual is DeepEqual with NaN treated as equal to itself —
// NaN round-trips bit-exactly but compares unequal.
func fuzzValuesEqual(a, b []interface{}) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		af, aok := a[i].(float64)
		bf, bok := b[i].(float64)
		if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0), int64(0), false, 0.0, "", []byte{})
	f.Add(uint32(math.MaxUint32), uint64(math.MaxUint64), int64(math.MinInt64), true, math.MaxFloat64, "héllo", []byte{0xFF})
	f.Add(uint32(1), uint64(2), int64(-3), true, math.Inf(-1), "a/b/c", bytes.Repeat([]byte{7}, 100))

	f.Fuzz(func(t *testing.T, u32 uint32, u64 uint64, i64 int64, b bool, f64 float64, s string, by []byte) {
		if len(s) > maxPayload || len(by) > maxPayload {
			return
		}
		data, err := AppendMarshal(nil, u32, u64, i64, b, f64, s, by)
		if err != nil {
			t.Fatalf("marshal of supported values failed: %v", err)
		}
		vals, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal of freshly marshalled stream failed: %v", err)
		}
		want := []interface{}{u32, u64, i64, b, f64, s, append([]byte{}, by...)}
		// []byte(nil) marshals as length 0 and decodes as empty non-nil.
		if by == nil {
			want[6] = []byte{}
		}
		if !fuzzValuesEqual(vals, want) {
			t.Fatalf("round trip changed values: %#v vs %#v", vals, want)
		}
	})
}

func FuzzDecode(f *testing.F) {
	payload, err := AppendMarshal(nil, int64(5), "file", []byte{9, 9})
	if err != nil {
		f.Fatal(err)
	}
	frame, err := Encode(Header{Kind: KindCall, CallID: 3, ProcID: 4, ClientID: 2, Epoch: 1}, payload)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range corruptionSeeds(frame) {
		f.Add(s)
	}
	f.Add(frame[:headerBytes])
	f.Add(frame[:headerBytes-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted frames re-encode byte-identically: the header fields
		// and payload fully determine the frame.
		again, err := Encode(h, payload)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode∘encode changed the frame bytes")
		}
	})
}

// valueLen is the fuzz oracle for one value of the stream format,
// written from the format alone: the length of the value rest starts
// with, and whether it is well-formed — a known tag, a length prefix
// within maxPayload, and the whole body present.
func valueLen(rest []byte) (int, bool) {
	if len(rest) == 0 {
		return 0, false
	}
	body := 0
	switch tag(rest[0]) {
	case tagU32:
		body = 4
	case tagU64, tagI64, tagF64:
		body = 8
	case tagBool:
		body = 1
	case tagString, tagBytes:
		if len(rest) < 5 {
			return 0, false
		}
		u := binary.BigEndian.Uint32(rest[1:])
		if u > maxPayload {
			return 0, false
		}
		body = 4 + int(u)
	default:
		return 0, false
	}
	return 1 + body, len(rest) >= 1+body
}

// argsGetters reads the next value with each getter in turn and
// reports whether the value read is its type's zero value.
var argsGetters = []func(a *Args) bool{
	func(a *Args) bool { return a.Uint32() == 0 },
	func(a *Args) bool { return a.Uint64() == 0 },
	func(a *Args) bool { return a.Int64() == 0 },
	func(a *Args) bool { return !a.Bool() },
	func(a *Args) bool { return math.Float64bits(a.Float64()) == 0 },
	func(a *Args) bool { return a.String() == "" },
	func(a *Args) bool { return a.StringBytes() == nil },
	func(a *Args) bool { return a.Bytes() == nil },
}

// checkPoisoned asserts that a faulted cursor stays faulted: every
// getter returns its zero value, Err keeps the first fault and More
// reports nothing left.
func checkPoisoned(t *testing.T, a *Args) {
	t.Helper()
	first := a.Err()
	for g, get := range argsGetters {
		if !get(a) {
			t.Errorf("getter %d returned a nonzero value after a fault", g)
		}
		if a.Err() != first {
			t.Fatalf("getter %d changed err from %v to %v", g, first, a.Err())
		}
	}
	if a.More() {
		t.Error("a poisoned cursor reports more values")
	}
}

// FuzzArgs drives the typed cursor that every handler decodes untrusted
// call frames through. It walks arbitrary bytes with the getter each
// tag byte names and re-appends each value with the matching typed
// appender; a byte that names no tag gets a getter picked by its value,
// which must refuse it. The cursor must never panic, must accept each
// value exactly when valueLen calls it well-formed, and so must end
// with a nil Err exactly when the walk consumed the whole stream. An
// accepted stream must re-encode to its own bytes, except that a bool
// body byte other than 0 re-encodes as 1. After the first fault, at
// the end of an accepted stream or at a malformed value, every getter
// must return its zero value and Err must stay set.
func FuzzArgs(f *testing.F) {
	var valid []byte
	valid = AppendUint32(valid, 7)
	valid = AppendUint64(valid, 1<<40)
	valid = AppendInt64(valid, -9)
	valid = AppendBool(valid, true)
	valid = AppendFloat64(valid, math.NaN())
	valid = AppendString(valid, "path/name")
	valid = AppendString(valid, "")
	valid = AppendBytes(valid, []byte{1, 2, 3})
	for _, s := range corruptionSeeds(valid) {
		f.Add(s)
	}
	for cut := 0; cut < len(valid); cut += 3 {
		f.Add(valid[:cut])
	}
	f.Add([]byte{byte(tagBool), 2})                             // a bool body the appender never writes
	f.Add([]byte{byte(tagString), 0xFF, 0xFF, 0xFF, 0xFF})      // hostile length
	f.Add([]byte{byte(tagBytes), 0x00, 0x01, 0x00, 0x00, 0x41}) // length just above maxPayload
	f.Add([]byte{0x00})                                         // unknown tag
	// The largest body a length prefix may announce, and one byte more.
	f.Add(AppendBytes(nil, make([]byte, maxPayload)))
	f.Add(append([]byte{byte(tagBytes), 0x00, 0x01, 0x00, 0x00}, make([]byte, maxPayload+1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewArgs(data)
		var out []byte
		// Every value takes at least its tag byte, so a walk of more
		// than len(data) steps is a cursor that stopped advancing.
		for i := 0; a.More() && i <= len(data); i++ {
			at := a.off
			n, ok := valueLen(data[at:])
			switch tag(data[at]) {
			case tagU32:
				out = AppendUint32(out, a.Uint32())
			case tagU64:
				out = AppendUint64(out, a.Uint64())
			case tagI64:
				out = AppendInt64(out, a.Int64())
			case tagBool:
				out = AppendBool(out, a.Bool())
			case tagF64:
				out = AppendFloat64(out, a.Float64())
			case tagString:
				if i%2 == 0 {
					out = AppendString(out, a.String())
				} else {
					out = AppendString(out, string(a.StringBytes()))
				}
			case tagBytes:
				out = AppendBytes(out, a.Bytes())
			default:
				argsGetters[int(data[at])%len(argsGetters)](&a)
			}
			if (a.Err() == nil) != ok {
				t.Fatalf("value %d at offset %d: cursor err = %v, oracle well-formed = %v", i, at, a.Err(), ok)
			}
			if ok && a.off != at+n {
				t.Fatalf("value %d at offset %d: cursor advanced to %d, want %d", i, at, a.off, at+n)
			}
		}
		consumed := a.off == len(data)
		if (a.Err() == nil) != consumed {
			t.Fatalf("err = %v, but the walk consumed %d of %d bytes", a.Err(), a.off, len(data))
		}
		if a.Err() == nil {
			want := append([]byte{}, data...)
			for at := 0; at < len(want); {
				n, _ := valueLen(want[at:])
				if tag(want[at]) == tagBool && want[at+1] != 0 {
					want[at+1] = 1
				}
				at += n
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("re-encoding differs from the input\n got %x\nwant %x", out, want)
			}
			// Reading past the end of an accepted stream is a fault.
			argsGetters[len(data)%len(argsGetters)](&a)
			if a.Err() == nil {
				t.Fatal("a getter read past the end of the stream without a fault")
			}
			if len(data) > 0 {
				// So is a getter of the wrong type, and it leaves the
				// cursor on a well-formed value that the right getter
				// must now refuse too.
				b := NewArgs(data)
				if tag(data[0]) == tagBytes {
					b.Uint32()
				} else {
					b.Bytes()
				}
				if b.Err() == nil {
					t.Fatalf("a wrong-type getter accepted tag %d", data[0])
				}
				checkPoisoned(t, &b)
			}
		}
		checkPoisoned(t, &a)
	})
}
