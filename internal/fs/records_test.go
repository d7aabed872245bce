package fs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// sumRecords are fixed records whose checksums are pinned: the
// checksum is part of the log's durable format, so any change to how
// recordSum walks the fields must reproduce these values exactly.
var sumRecords = []struct {
	name string
	r    Record
	sum  uint32
}{
	{"empty path", Record{Seq: 1, Op: OpMkdir, Client: 7, Call: 1}, 0x71a0f67d},
	{"empty data", Record{Seq: 2, Op: OpWrite, FD: 3, Data: []byte{}, Client: 7, Call: 2}, 0x62289f44},
	{"negative fd", Record{Seq: 3, Op: OpClose, FD: -1, Client: 7, Call: 3}, 0x3dbe33d5},
	{"2 KiB data", Record{Seq: 4, Op: OpWrite, FD: 5, Data: bytes.Repeat([]byte("0123456789abcdef"), 128), Client: 9, Call: 4}, 0x0f122312},
	{"max seq", Record{Seq: math.MaxUint64, Op: OpCreate, Path: "/a/b/x", Client: math.MaxUint32, Call: math.MaxUint32}, 0x676d1a40},
	{"read count", Record{Seq: 42, Op: OpRead, FD: 4, N: 512, Client: 1, Call: 99}, 0xb4f9c806},
}

func TestRecordSumPinned(t *testing.T) {
	for _, c := range sumRecords {
		if got := recordSum(c.r); got != c.sum {
			t.Errorf("%s: recordSum = %#08x, want %#08x", c.name, got, c.sum)
		}
	}
}

func TestRecordSumAllocatesAtMostOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	r := Record{Seq: 9, Op: OpWrite, FD: 5, Path: "/a/b/x", Data: bytes.Repeat([]byte{0xa5}, 2048), Client: 3, Call: 4}
	if got := testing.AllocsPerRun(200, func() { recordSum(r) }); got > 1 {
		t.Errorf("recordSum allocates %.1f times per call, want at most 1", got)
	}
}

// batchRecords are the records of a workout, sealed and retained for
// shipping: every op code, paths, payloads, and open descriptors.
func batchRecords(t testing.TB) []Record {
	t.Helper()
	w := NewWAL(64)
	w.EnableShipping()
	workout(t, w, New(64))
	return w.RecordsSince(0)
}

func TestDecodeRecordsRejectsMalformedBatches(t *testing.T) {
	one, err := EncodeRecords([]Record{{Seq: 1, Op: OpCreate, Path: "/abc", Data: []byte("xyz"), Client: 1, Call: 2, Sum: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// one's bytes: format, count, Seq, Op, then the Path length at
	// offset 4; every value here fits in one byte.
	with := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), one...))
	}
	for _, c := range []struct {
		name  string
		batch []byte
	}{
		{"empty input", nil},
		{"wrong format byte", with(func(b []byte) []byte { b[0]++; return b })},
		{"count the bytes cannot hold", with(func(b []byte) []byte { b[1] = 2; return b })},
		{"count overflowing a varint", []byte{one[0], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"path length past the end", with(func(b []byte) []byte { b[4] = 0x7f; return b })},
		{"truncated final word", with(func(b []byte) []byte { return b[:len(b)-1] })},
		{"trailing bytes", with(func(b []byte) []byte { return append(b, 0) })},
	} {
		if recs, err := DecodeRecords(c.batch); err == nil {
			t.Errorf("%s: decoded %d records without error", c.name, len(recs))
		}
	}
}

func TestDecodedRecordsOwnTheirBytes(t *testing.T) {
	// A shipped batch arrives as a view into a recycled wire frame that is
	// reused once the handler returns, while the backup's log keeps the
	// decoded records: decoding must copy every path and payload.
	recs := batchRecords(t)
	enc, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xee
	}
	if !reflect.DeepEqual(dec, recs) {
		t.Fatal("decoded records changed when the input was overwritten")
	}
	for _, r := range dec {
		if r.Sum != recordSum(r) {
			t.Errorf("record %d fails its checksum after the input was overwritten", r.Seq)
		}
	}
}

func FuzzDecodeRecords(f *testing.F) {
	enc, err := EncodeRecords(batchRecords(f))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeRecords(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(empty)
	f.Add([]byte("not a batch"))
	// stale fills a reused destination: a decoder that left any field
	// of an appended record unwritten would leak it into the batch.
	stale := Record{Seq: 99, Op: OpWrite, Path: "/stale", FD: 9, N: 9, Data: []byte("stale"), Client: 9, Call: 9, Sum: 9}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		recs, err := DecodeRecords(in)
		dst := make([]Record, 2+len(recs))
		for i := range dst {
			dst[i] = stale
		}
		reused, rerr := AppendDecodedRecords(dst[:1], data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("decoding into a reused slice: error %v, fresh decode %v", rerr, err)
		}
		if len(reused) != 1+len(recs) || !reflect.DeepEqual(reused[0], stale) ||
			len(recs) > 0 && !reflect.DeepEqual(reused[1:], recs) {
			t.Fatalf("decoding into a reused slice differs from a fresh decode\ngot  %+v\nwant %+v", reused, recs)
		}
		if err != nil {
			return
		}
		// The records own their bytes: overwriting the input after the
		// decode leaves them as they were decoded.
		for i := range in {
			in[i] ^= 0xff
		}
		if fresh, _ := DecodeRecords(data); !reflect.DeepEqual(recs, fresh) {
			t.Fatalf("decoded records changed when the input was overwritten\ngot  %+v\nwant %+v", recs, fresh)
		}
		again, err := EncodeRecords(recs)
		if err != nil {
			t.Fatalf("re-encoding a decoded batch: %v", err)
		}
		if prefixed := AppendRecords([]byte("prefix"), recs); !bytes.Equal(prefixed[len("prefix"):], again) {
			t.Fatal("AppendRecords behind a prefix differs from EncodeRecords")
		}
		back, err := DecodeRecords(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip changed the batch\ngot  %+v\nwant %+v", back, recs)
		}
	})
}
