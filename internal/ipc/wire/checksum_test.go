package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// refAddWords is the byte-pair loop addWords replaced, kept as the
// reference: one big-endian 16-bit word per step into a 32-bit sum,
// a trailing odd byte padded high. Its sum cannot wrap for any buffer
// up to a maximum-size frame.
func refAddWords(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

func refChecksum(data []byte) uint16 { return fold(refAddWords(0, data)) }

// refFrameChecksum is the reference sum of a frame with its checksum
// word skipped.
func refFrameChecksum(frame []byte) uint16 {
	return fold(refAddWords(refAddWords(0, frame[:checksumStart]), frame[checksumStart+2:]))
}

// checkChecksum compares Checksum, the even split of data at split
// through addWords and — when data is long enough to be a frame —
// frameChecksum against the references.
func checkChecksum(t *testing.T, data []byte, split int) {
	t.Helper()
	want := refChecksum(data)
	if got := Checksum(data); got != want {
		t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", len(data), got, want)
	}
	split = min(split, len(data)) &^ 1
	if got := fold(addWords(addWords(0, data[:split]), data[split:])); got != want {
		t.Fatalf("len %d split at %d: %#04x, reference %#04x", len(data), split, got, want)
	}
	if len(data) >= headerBytes {
		if got, want := frameChecksum(data), refFrameChecksum(data); got != want {
			t.Fatalf("frameChecksum(len %d) = %#04x, reference %#04x", len(data), got, want)
		}
	}
}

// TestChecksumMatchesBytePairReference pins the word-wide sum to the
// byte-pair loop on every length up to 3000 (odd ones and every tail
// length past the 16-byte blocks included) and at every even split of
// the longest buffers, over random bytes and over all-0x00 and
// all-0xFF buffers, whose sums are the ones-complement edge cases:
// zero, and a nonzero multiple of 0xFFFF that must not fold to zero.
func TestChecksumMatchesBytePairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	random := make([]byte, 3000)
	rng.Read(random)
	zeros := make([]byte, 3000)
	ones := bytes.Repeat([]byte{0xFF}, 3000)
	for _, buf := range [][]byte{random, zeros, ones} {
		for n := 0; n <= len(buf); n++ {
			checkChecksum(t, buf[:n], n/3)
		}
		for _, data := range [][]byte{buf, buf[:len(buf)-1]} {
			for split := 0; split <= len(data); split += 2 {
				checkChecksum(t, data, split)
			}
		}
	}
	if got := Checksum(ones[:2]); got != 0 {
		t.Errorf("checksum of 0xFFFF = %#04x, want 0 (a nonzero sum folds to 0xFFFF)", got)
	}
	// Two all-ones words and a 1 sum to 2^33-1, whose first fold to 32
	// bits carries out again.
	carry := append(bytes.Repeat([]byte{0xFF}, 8), 0, 0, 0, 1, 0, 0, 0, 0)
	for split := 0; split <= len(carry); split += 2 {
		checkChecksum(t, carry, split)
	}
}

func TestFrameChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 255, 300, 2048, maxPayload} {
		payload := make([]byte, n)
		rng.Read(payload)
		frame, err := Encode(Header{Kind: KindCall, CallID: uint32(n), ProcID: 4, ClientID: 9, Expiry: 0xFFFFFFFF}, payload)
		if err != nil {
			t.Fatal(err)
		}
		want := refFrameChecksum(frame)
		if got := frameChecksum(frame); got != want {
			t.Errorf("payload %d: frameChecksum = %#04x, reference %#04x", n, got, want)
		}
		if _, _, err := Decode(frame); err != nil {
			t.Errorf("payload %d: %v", n, err)
		}
	}
}

func FuzzChecksum(f *testing.F) {
	frame, err := Encode(Header{Kind: KindReply, CallID: 3, ProcID: 4, ClientID: 2, Epoch: 1}, []byte("firefly"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame, uint16(checksumStart))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xFF}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 33), uint16(18))
	f.Add(make([]byte, 47), uint16(16))
	f.Add(append(bytes.Repeat([]byte{0xFF}, 8), 0, 0, 0, 1, 0, 0, 0, 0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		if len(data) > headerBytes+maxPayload {
			return // past the largest frame, the reference's 32-bit sum could wrap
		}
		checkChecksum(t, data, int(split))
	})
}

// checksumSink keeps the benchmarked checksum from being optimised away.
var checksumSink uint16

// BenchmarkFrameChecksum measures the checksum of a whole frame, the
// pass Encode and Decode each make.
func BenchmarkFrameChecksum(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"2KiB", 2048}, {"300B", 300}} {
		b.Run(size.name, func(b *testing.B) {
			payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, size.bytes)[:size.bytes-headerBytes]
			frame, err := Encode(Header{Kind: KindCall, CallID: 1, ProcID: 5, ClientID: 2}, payload)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checksumSink = frameChecksum(frame)
			}
		})
	}
}
