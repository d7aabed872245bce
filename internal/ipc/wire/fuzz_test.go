package wire

import (
	"bytes"
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
