package fs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// logged wraps an op through the WAL discipline the server uses:
// append, then apply, then commit — so tests replay realistic logs.
func logged(t testing.TB, w *WAL, f *FS, r Record) ApplyResult {
	t.Helper()
	r = w.Append(r)
	res, err := f.Apply(r)
	s := SessionRecord{Client: r.Client, Call: r.Call, Op: r.Op, Result: res}
	if err != nil {
		s.Err = err.Error()
	}
	w.Commit(s)
	return res
}

// workout drives a mixed op sequence through the log: directories,
// files, interleaved reads and writes (offsets matter), an unlink, and
// descriptors deliberately left open so recovery must rebuild the fd
// table, not just the tree.
func workout(t testing.TB, w *WAL, f *FS) {
	t.Helper()
	call := uint32(0)
	do := func(r Record) ApplyResult {
		call++
		r.Client, r.Call = 7, call
		return logged(t, w, f, r)
	}
	do(Record{Op: OpMkdir, Path: "/a"})
	do(Record{Op: OpMkdir, Path: "/a/b"})
	fd1 := do(Record{Op: OpCreate, Path: "/a/b/x"}).FD
	do(Record{Op: OpWrite, FD: fd1, Data: []byte("hello, ")})
	do(Record{Op: OpWrite, FD: fd1, Data: []byte("world")})
	do(Record{Op: OpClose, FD: fd1})
	fd2 := do(Record{Op: OpOpen, Path: "/a/b/x"}).FD
	do(Record{Op: OpRead, FD: fd2, N: 5}) // advances fd2's offset
	fd3 := do(Record{Op: OpCreate, Path: "/a/y"}).FD
	do(Record{Op: OpWrite, FD: fd3, Data: []byte("doomed")})
	do(Record{Op: OpClose, FD: fd3})
	do(Record{Op: OpUnlink, Path: "/a/y"})
	// fd2 stays open with a non-zero offset.
}

func TestRecoverReplaysToIdenticalState(t *testing.T) {
	w := NewWAL(64)
	f := New(64)
	workout(t, w, f)

	g, sessions, replayed, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("no records replayed from an unsnapshotted log")
	}
	if got, want := g.Fingerprint(), f.Fingerprint(); got != want {
		t.Errorf("recovered fingerprint %s != live %s", got, want)
	}
	if got, want := g.OpenFDs(), f.OpenFDs(); got != want {
		t.Errorf("recovered OpenFDs = %d, want %d", got, want)
	}
	// The fd left open must read the same remaining bytes in both.
	want, _ := readRest(f)
	got, _ := readRest(g)
	if want != got {
		t.Errorf("open descriptor state diverged: recovered reads %q, live reads %q", got, want)
	}
	if len(sessions) != 1 || sessions[0].Client != 7 {
		t.Fatalf("sessions = %+v, want one record for client 7", sessions)
	}
}

// readRest drains the one open descriptor both file systems hold (the
// fd numbers match because allocation is counter-based and replayed).
func readRest(f *FS) (string, error) {
	for fdno := 1; fdno < 64; fdno++ {
		buf := make([]byte, 64)
		n, err := f.Read(fdno, buf)
		if err == nil {
			return string(buf[:n]), nil
		}
	}
	return "", errors.New("no open descriptor")
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	w := NewWAL(64)
	f := New(64)
	workout(t, w, f)
	if w.SinceSnapshot() == 0 {
		t.Fatal("expected a tail before snapshot")
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if w.SinceSnapshot() != 0 {
		t.Errorf("tail not truncated: %d records remain", w.SinceSnapshot())
	}
	// More traffic after the snapshot lands in the new tail.
	fd := logged(t, w, f, Record{Op: OpCreate, Path: "/post", Client: 9, Call: 1}).FD
	logged(t, w, f, Record{Op: OpWrite, FD: fd, Data: []byte("after snapshot"), Client: 9, Call: 2})

	g, sessions, replayed, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 2 {
		t.Errorf("replayed = %d, want 2 (only the post-snapshot tail)", replayed)
	}
	if got, want := g.Fingerprint(), f.Fingerprint(); got != want {
		t.Errorf("recovered fingerprint %s != live %s", got, want)
	}
	// Sessions from before the snapshot survive the truncation: client
	// 7's last call stays answerable.
	byClient := map[uint32]SessionRecord{}
	for _, s := range sessions {
		byClient[s.Client] = s
	}
	if _, ok := byClient[7]; !ok {
		t.Error("client 7's session lost across snapshot truncation")
	}
	if s := byClient[9]; s.Call != 2 || s.Op != OpWrite {
		t.Errorf("client 9 session = %+v, want call 2 (write)", s)
	}
}

func TestRecoverEmptyWAL(t *testing.T) {
	w := NewWAL(32)
	g, sessions, replayed, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 || len(sessions) != 0 {
		t.Errorf("replayed=%d sessions=%d from an empty log", replayed, len(sessions))
	}
	if got, want := g.Fingerprint(), New(32).Fingerprint(); got != want {
		t.Errorf("empty recovery fingerprint %s != fresh FS %s", got, want)
	}
	if g.CacheBlocks() != 32 {
		t.Errorf("CacheBlocks = %d, want 32", g.CacheBlocks())
	}
}

func TestRecoverReproducesLoggedErrors(t *testing.T) {
	// A logged op that failed (mkdir over an existing directory) must
	// fail identically on replay, reproducing the session's Err — the
	// reply a retransmission would be owed.
	w := NewWAL(16)
	f := New(16)
	logged(t, w, f, Record{Op: OpMkdir, Path: "/d", Client: 3, Call: 1})
	logged(t, w, f, Record{Op: OpMkdir, Path: "/d", Client: 3, Call: 2}) // fails: exists

	_, sessions, _, err := Recover(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("sessions = %+v, want one", sessions)
	}
	s := sessions[0]
	if s.Call != 2 || s.Err == "" {
		t.Errorf("session = %+v, want call 2 with the mkdir error recorded", s)
	}
	if _, wantErr := f.Apply(Record{Op: OpMkdir, Path: "/d"}); wantErr == nil || errText(s) != wantErr.Error() {
		t.Errorf("replayed error %q does not reproduce the live error %v", errText(s), wantErr)
	}
}

// errText is a session's whole error text.
func errText(s SessionRecord) string { return s.Err + s.ErrSep() + s.ErrPath }

func TestApplySessionKeepsApplyErrorText(t *testing.T) {
	// A session record keeps a Named failure as the sentinel's text and
	// the logged path, apart; joined, they are the text Apply's error
	// gives, and every other error is kept whole. The snapshot image
	// stores the joined text, byte for byte what it stores for a record
	// that holds it all in Err, and restores it so.
	build := func() *FS {
		f := New(64)
		for _, dir := range []string{"/d", "/n", "/n/c"} {
			if err := f.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
		}
		if fd, err := f.Create("/d/f"); err != nil || fd != 1 {
			t.Fatalf("Create = %d, %v", fd, err) // fd 1 stays open
		}
		return f
	}
	for _, r := range []Record{
		{Op: OpMkdir, Path: "/d"},                                  // ErrExist
		{Op: OpMkdir, Path: "/"},                                   // ErrExist, the root
		{Op: OpOpen, Path: "/z"},                                   // ErrNotExist
		{Op: OpUnlink, Path: "/z"},                                 // ErrNotExist, the final name
		{Op: OpCreate, Path: "/z/f"},                               // ErrNotExist, a parent
		{Op: OpMkdir, Path: "/d/f/x"},                              // ErrNotDir
		{Op: OpOpen, Path: "/d/f/x"},                               // ErrNotDir, a walk
		{Op: OpOpen, Path: "/d"},                                   // ErrIsDir
		{Op: OpCreate, Path: "/d"},                                 // ErrIsDir
		{Op: OpUnlink, Path: "/n"},                                 // ErrNotEmpty
		{Op: OpMkdir, Path: "d"},                                   // a relative path
		{Op: OpCreate, Path: "/" + strings.Repeat("a", maxName+1)}, // ErrNameTooBig
		{Op: OpClose, FD: 99},                                      // ErrBadFD
		{Op: OpRead, FD: 1, N: -3},                                 // ErrBadCount
	} {
		_, want := build().Apply(r)
		if want == nil {
			t.Fatalf("%+v succeeded", r)
		}
		r.Client, r.Call = 7, 1
		f := build()
		s := f.ApplySession(r)
		if errText(s) != want.Error() {
			t.Errorf("%+v: session text %q, Apply's error %q", r, errText(s), want)
		}
		wantPath := ""
		if pe := (*pathError)(nil); errors.As(want, &pe) {
			wantPath = r.Path
		}
		if s.ErrPath != wantPath {
			t.Errorf("%+v: session keeps path %q apart, want %q", r, s.ErrPath, wantPath)
		}
		whole := s
		whole.Err, whole.ErrPath = want.Error(), ""
		img := encodeImage(nil, 64, f, map[uint32]SessionRecord{7: s})
		if !bytes.Equal(img, encodeImage(nil, 64, f, map[uint32]SessionRecord{7: whole})) {
			t.Errorf("%+v: the image of a split error text differs from the whole text's", r)
		}
		if _, restored, err := restore(img); err != nil || !reflect.DeepEqual(restored, []SessionRecord{whole}) {
			t.Errorf("%+v: restored sessions %+v, %v; want %+v", r, restored, err, whole)
		}
	}
}

func TestApplyRejectsUnknownOp(t *testing.T) {
	f := New(8)
	for _, op := range []OpCode{OpInvalid, OpCode(99)} {
		if _, err := f.Apply(Record{Op: op}); err == nil {
			t.Errorf("Apply(%v) succeeded, want error", op)
		}
	}
}

func TestWALStatsCount(t *testing.T) {
	w := NewWAL(8)
	f := New(8)
	workout(t, w, f)
	appends := w.Stats().Appends
	if appends == 0 {
		t.Fatal("no appends counted")
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Snapshots != 1 || st.Truncated != appends || st.SnapshotBytes == 0 {
		t.Errorf("stats = %+v, want 1 snapshot truncating %d records with a non-empty image", st, appends)
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op, want := range map[OpCode]string{
		OpMkdir: "mkdir", OpCreate: "create", OpOpen: "open", OpClose: "close",
		OpRead: "read", OpWrite: "write", OpUnlink: "unlink",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if s := OpCode(42).String(); s != fmt.Sprintf("op(%d)", 42) {
		t.Errorf("unknown op string = %q", s)
	}
}

func TestRecoverTruncatesTornFinalRecord(t *testing.T) {
	// Satellite of the replication work: a crash mid-append leaves the
	// last record partially persisted — payload cut short, checksum
	// stale. Recovery must detect it, drop exactly that record, rewind
	// the sequence counter, and replay the intact prefix.
	f := New(64)
	w := NewWAL(64)
	workout(t, w, f)
	before := w.LastSeq()
	// The torn op: a write whose payload the crash cut in half.
	r := w.Append(Record{Op: OpWrite, FD: 99, Data: []byte("never fully persisted"), Client: 7, Call: 99})
	if !w.TearFinalRecord() {
		t.Fatal("nothing to tear")
	}
	rec, _, replayed, err := Recover(w)
	if err != nil {
		t.Fatalf("recovery refused a torn FINAL record: %v", err)
	}
	if replayed != int(before) {
		t.Errorf("replayed %d records, want the intact prefix of %d", replayed, before)
	}
	if w.LastSeq() != before {
		t.Errorf("LastSeq = %d after truncation, want %d (seq %d rewound)", w.LastSeq(), before, r.Seq)
	}
	if got := w.Stats().TornTruncated; got != 1 {
		t.Errorf("TornTruncated = %d, want 1", got)
	}
	// The torn op never happened: state equals a clean replay of the
	// prefix, and the next append reuses the rewound sequence number.
	clean := New(64)
	cw := NewWAL(64)
	workout(t, cw, clean)
	if rec.Fingerprint() != clean.Fingerprint() {
		t.Error("recovered state diverged from the intact prefix")
	}
	if next := w.Append(Record{Op: OpMkdir, Path: "/after"}); next.Seq != before+1 {
		t.Errorf("next append got seq %d, want %d", next.Seq, before+1)
	}
}

func TestRecoverRefusesTornMidLogRecord(t *testing.T) {
	// A bad checksum anywhere but the final record is not a crash
	// signature — it is log damage. Replaying past it would diverge, so
	// recovery must refuse rather than guess.
	f := New(64)
	w := NewWAL(64)
	logged(t, w, f, Record{Op: OpMkdir, Path: "/a", Client: 1, Call: 1})
	logged(t, w, f, Record{Op: OpMkdir, Path: "/a/b", Client: 1, Call: 2})
	if !w.TearFinalRecord() {
		t.Fatal("nothing to tear")
	}
	logged(t, w, f, Record{Op: OpMkdir, Path: "/c", Client: 1, Call: 3})
	if _, _, _, err := Recover(w); err == nil {
		t.Fatal("recovery accepted a torn record mid-log")
	}
}

func TestShippingCursorRetainsUntilAcked(t *testing.T) {
	// The replication cursor: with shipping enabled, appended records
	// stay available to RecordsSince across snapshots until AckShipped
	// passes them — a snapshot folds records for recovery, not shipping.
	f := New(64)
	w := NewWAL(64)
	w.EnableShipping()
	for i := 0; i < 4; i++ {
		logged(t, w, f, Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", i), Client: 1, Call: uint32(i + 1)})
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if got := w.ShipBacklog(); got != 4 {
		t.Fatalf("backlog = %d after snapshot, want 4 (snapshots must not drop unshipped records)", got)
	}
	batch := w.RecordsSince(2)
	if len(batch) != 2 || batch[0].Seq != 3 || batch[1].Seq != 4 {
		t.Fatalf("RecordsSince(2) = %+v, want seqs 3 and 4", batch)
	}
	w.AckShipped(3)
	if got := w.ShipBacklog(); got != 1 {
		t.Errorf("backlog = %d after AckShipped(3), want 1", got)
	}
	w.AckShipped(4)
	if got := w.ShipBacklog(); got != 0 {
		t.Errorf("backlog = %d after full ack, want 0", got)
	}
	// Without EnableShipping nothing is retained (the single-server
	// arrangement must not leak).
	w2 := NewWAL(64)
	w2.Append(Record{Op: OpMkdir, Path: "/x"})
	if got := w2.ShipBacklog(); got != 0 {
		t.Errorf("unshipped WAL retained %d records", got)
	}
}

func TestWALSteadyStateAllocatesNothingPerRecord(t *testing.T) {
	// The write path's per-record scratch belongs to the log: the
	// checksum buffer is the WAL's, and released records are compacted
	// in place rather than resliced past. Once warm, Append followed by
	// AckShipped on a primary and AppendShipped on a backup allocate
	// nothing per record. (The log grows by amortised doubling, which
	// the per-run average rounds away.)
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const runs = 500
	rec := Record{Op: OpWrite, FD: 3, Path: "/a/b/x", Data: make([]byte, 2048), Client: 1}
	primary := NewWAL(64)
	primary.EnableShipping()
	for i := 0; i < 16; i++ {
		primary.Append(rec)
		primary.AckShipped(primary.LastSeq())
	}
	if got := testing.AllocsPerRun(runs, func() {
		primary.Append(rec)
		primary.AckShipped(primary.LastSeq())
	}); got != 0 {
		t.Errorf("Append+AckShipped allocates %.1f times per record, want 0", got)
	}
	if n := primary.ShipBacklog(); n != 0 {
		t.Fatalf("ship backlog %d after every record was acknowledged", n)
	}

	src := NewWAL(64)
	shipped := make([]Record, runs+1+16+(1+4+1)*64)
	for i := range shipped {
		shipped[i] = src.Append(rec)
	}
	backup := NewWAL(64)
	next := 0
	appendShipped := func() {
		if err := backup.AppendShipped(shipped[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 16; i++ {
		appendShipped()
	}
	if got := testing.AllocsPerRun(runs, appendShipped); got != 0 {
		t.Errorf("AppendShipped allocates %.1f times per record, want 0", got)
	}

	// A snapshot truncates the tail but keeps its array, so the records
	// after it refill the array instead of regrowing it from empty: a
	// cycle of 64 records and a snapshot allocates exactly what the
	// snapshot alone does, on the primary and on a backup. The kept
	// array is zeroed, so its spare slots pin no logged Path or Data.
	fsys := New(64)
	const perCycle = 64
	for _, tc := range []struct {
		name      string
		w         *WAL
		appendOne func()
	}{
		{"primary", primary, func() {
			primary.Append(rec)
			primary.AckShipped(primary.LastSeq())
		}},
		{"backup", backup, appendShipped},
	} {
		snapshot := func() {
			if err := tc.w.Snapshot(fsys); err != nil {
				t.Fatal(err)
			}
		}
		cycle := func() {
			for i := 0; i < perCycle; i++ {
				tc.appendOne()
			}
			snapshot()
		}
		cycle()
		alone := testing.AllocsPerRun(4, snapshot)
		if got := testing.AllocsPerRun(4, cycle); got != alone {
			t.Errorf("%s: %d records and a snapshot allocate %.1f times, the snapshot alone %.1f", tc.name, perCycle, got, alone)
		}
		if c := cap(tc.w.log); c < perCycle {
			t.Errorf("%s: log capacity %d after a snapshot, want the kept array (≥ %d)", tc.name, c, perCycle)
		}
		for i, r := range tc.w.log[:cap(tc.w.log)] {
			if !reflect.DeepEqual(r, Record{}) {
				t.Fatalf("%s: spare log slot %d after a snapshot holds %+v, want a zero Record", tc.name, i, r)
			}
		}
	}
}

func TestSnapshotZeroesRecordsDroppedPastTheTail(t *testing.T) {
	// A quarantine truncates the tail and leaves the dropped records in
	// the array past its end. The snapshot after it zeroes the whole
	// kept array, so neither the dropped records nor the folded ones pin
	// a logged Path or Data.
	w := NewWAL(64)
	f := New(64)
	for i := 0; i < 8; i++ {
		logged(t, w, f, Record{Op: OpCreate, Path: fmt.Sprintf("/f%d", i), Client: 1, Call: uint32(i + 1)})
	}
	if n := w.QuarantineFrom(5); n != 4 {
		t.Fatalf("quarantined %d records, want 4", n)
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	if len(w.log) != 0 || cap(w.log) < 8 {
		t.Fatalf("log len %d cap %d after a snapshot, want the kept array, empty", len(w.log), cap(w.log))
	}
	for i, r := range w.log[:cap(w.log)] {
		if !reflect.DeepEqual(r, Record{}) {
			t.Errorf("kept log slot %d holds %+v, want a zero Record", i, r)
		}
	}
}

func TestAppendShippedEnforcesContiguityAndChecksum(t *testing.T) {
	// The backup's append: only the exact successor with a valid
	// checksum is accepted — a gap or a damaged record is a replication
	// bug, not something to paper over.
	src := New(64)
	sw := NewWAL(64)
	sw.EnableShipping()
	logged(t, sw, src, Record{Op: OpMkdir, Path: "/a", Client: 1, Call: 1})
	logged(t, sw, src, Record{Op: OpMkdir, Path: "/b", Client: 1, Call: 2})
	recs := sw.RecordsSince(0)

	bw := NewWAL(64)
	if err := bw.AppendShipped(recs[1]); err == nil {
		t.Error("gap accepted: seq 2 appended onto an empty log")
	}
	if err := bw.AppendShipped(recs[0]); err != nil {
		t.Fatalf("contiguous shipped record rejected: %v", err)
	}
	damaged := recs[1]
	damaged.Data = []byte("bitrot")
	if err := bw.AppendShipped(damaged); err == nil {
		t.Error("damaged shipped record accepted")
	}
	if err := bw.AppendShipped(recs[1]); err != nil {
		t.Fatalf("valid successor rejected: %v", err)
	}
	if bw.LastSeq() != 2 {
		t.Errorf("backup LastSeq = %d, want 2", bw.LastSeq())
	}
}

func TestRecordBatchCodecRoundTrips(t *testing.T) {
	f := New(64)
	w := NewWAL(64)
	w.EnableShipping()
	workout(t, w, f)
	recs := w.RecordsSince(0)
	// Then a 2 KiB payload and the widest Seq, Client and Call.
	for _, c := range sumRecords[3:5] {
		r := c.r
		r.Sum = c.sum
		recs = append(recs, r)
	}
	enc, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if cap(enc) != len(enc) {
		t.Errorf("encoded batch has cap %d for %d bytes: the buffer was not sized exactly", cap(enc), len(enc))
	}
	dec, err := DecodeRecords(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, recs) {
		t.Fatalf("decoded batch differs from the encoded records\ngot  %+v\nwant %+v", dec, recs)
	}
	for i := range dec {
		if dec[i].Sum != recordSum(dec[i]) {
			t.Errorf("record %d lost integrity across the codec", i)
		}
	}
	// The demotion fencing probe ships an empty batch.
	empty, err := EncodeRecords(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := DecodeRecords(empty); err != nil || len(dec) != 0 {
		t.Errorf("empty batch decodes to %d records, %v", len(dec), err)
	}
	if _, err := DecodeRecords([]byte("not a batch")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestTornRecordClassification(t *testing.T) {
	// The two tears are different diseases: a torn FINAL record is the
	// crash-mid-append signature (truncate and carry on), a torn mid-log
	// record is at-rest damage (refuse, with a typed error naming the
	// corrupt region so the repair path can quarantine exactly it).
	const records = 5
	cases := []struct {
		name     string
		tearAt   int // tail offset to damage
		wantCorr bool
	}{
		{"final record tear is a crash signature", records - 1, false},
		{"first record tear is log damage", 0, true},
		{"middle record tear is log damage", 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := New(64)
			w := NewWAL(64)
			for i := 0; i < records; i++ {
				logged(t, w, f, Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", i), Client: 1, Call: uint32(i + 1)})
			}
			seq, ok := w.CorruptTailRecord(c.tearAt)
			if !ok {
				t.Fatal("nothing to tear")
			}
			_, _, _, err := Recover(w)
			var corrupt *ErrWALCorrupt
			if got := errors.As(err, &corrupt); got != c.wantCorr {
				t.Fatalf("Recover() = %v; classified as corruption: %v, want %v", err, got, c.wantCorr)
			}
			if !c.wantCorr {
				if err != nil {
					t.Fatalf("torn final record not truncated: %v", err)
				}
				if got := w.Stats().TornTruncated; got != 1 {
					t.Errorf("TornTruncated = %d, want 1", got)
				}
				return
			}
			// The typed error names the damage precisely enough to
			// quarantine it: sequence number and tail offset.
			if corrupt.Seq != seq {
				t.Errorf("ErrWALCorrupt.Seq = %d, want %d", corrupt.Seq, seq)
			}
			if corrupt.Index != c.tearAt {
				t.Errorf("ErrWALCorrupt.Index = %d, want %d", corrupt.Index, c.tearAt)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("seq %d", seq)) {
				t.Errorf("error %q does not name the corrupt sequence", err)
			}
		})
	}
}

func TestQuarantineFromHealsMidLogTear(t *testing.T) {
	// The repair path for a torn mid-log record: quarantine from the
	// damage onward, recover the intact prefix, and leave the sequence
	// counter rewound so a healthy peer's re-ship lands contiguously.
	f := New(64)
	w := NewWAL(64)
	w.EnableShipping()
	const records = 6
	for i := 0; i < records; i++ {
		logged(t, w, f, Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", i), Client: 1, Call: uint32(i + 1)})
	}
	seq, ok := w.CorruptTailRecord(3)
	if !ok {
		t.Fatal("nothing to tear")
	}
	_, _, _, err := Recover(w)
	var corrupt *ErrWALCorrupt
	if !errors.As(err, &corrupt) {
		t.Fatalf("Recover() = %v, want ErrWALCorrupt", err)
	}
	if n := w.QuarantineFrom(corrupt.Seq); n != records-3 {
		t.Errorf("quarantined %d records, want %d (the corrupt suffix)", n, records-3)
	}
	g, _, replayed, err := Recover(w)
	if err != nil {
		t.Fatalf("recovery after quarantine failed: %v", err)
	}
	if replayed != 3 || w.LastSeq() != seq-1 {
		t.Errorf("replayed %d records to seq %d, want 3 records to seq %d", replayed, w.LastSeq(), seq-1)
	}
	// The quarantined range is gone from the ship cursor's view too, so
	// a peer's re-ship of exactly seq appends contiguously.
	if err := w.AppendShipped(Record{Seq: seq, Op: OpMkdir, Path: "/d3", Client: 1, Call: 4, Sum: recordSum(Record{Seq: seq, Op: OpMkdir, Path: "/d3", Client: 1, Call: 4})}); err != nil {
		t.Errorf("re-shipped record at quarantine point rejected: %v", err)
	}
	if got := w.Stats().Quarantined; got != records-3 {
		t.Errorf("Quarantined = %d, want %d", got, records-3)
	}
	// State equals a clean replay of the intact prefix.
	clean := New(64)
	for i := 0; i < 3; i++ {
		if err := clean.Mkdir(fmt.Sprintf("/d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.Fingerprint() != clean.Fingerprint() {
		t.Error("recovered state diverged from the intact prefix")
	}
}

func TestShipFloorAndMergedRecordsSince(t *testing.T) {
	// The ship-cursor audit, satellite of the rejoin work: RecordsSince
	// must serve any cursor at or above ShipFloor with an exact,
	// contiguous, duplicate-free suffix — across snapshots, which fold
	// the tail for recovery but must neither re-ship nor skip records.
	f := New(64)
	w := NewWAL(64)
	w.EnableShipping()
	for i := 0; i < 4; i++ {
		logged(t, w, f, Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", i), Client: 1, Call: uint32(i + 1)})
	}
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		logged(t, w, f, Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", i), Client: 1, Call: uint32(i + 1)})
	}
	// Records 1–4 are retained below the tail (the snapshot folded
	// them, and no backup has acknowledged them); 5–6 are the tail. The
	// log must hand each out exactly once.
	wantSuffix := func(cursor uint64) {
		t.Helper()
		batch := w.RecordsSince(cursor)
		if len(batch) != int(6-cursor) {
			t.Fatalf("RecordsSince(%d) returned %d records, want %d", cursor, len(batch), 6-cursor)
		}
		for i, r := range batch {
			if r.Seq != cursor+uint64(i)+1 {
				t.Fatalf("RecordsSince(%d)[%d].Seq = %d, want %d (contiguous, no dup, no skip)",
					cursor, i, r.Seq, cursor+uint64(i)+1)
			}
		}
	}
	if got := w.ShipFloor(); got != 0 {
		t.Fatalf("ShipFloor = %d with the whole log retained, want 0", got)
	}
	for cursor := uint64(0); cursor <= 6; cursor++ {
		wantSuffix(cursor)
	}
	// Acking releases folded records and raises the floor: cursors below
	// it are no longer servable record-by-record (state transfer's job).
	w.AckShipped(2)
	if got := w.ShipFloor(); got != 2 {
		t.Errorf("ShipFloor = %d after AckShipped(2), want 2", got)
	}
	for cursor := uint64(2); cursor <= 6; cursor++ {
		wantSuffix(cursor)
	}
	// Full ack: only the post-snapshot tail remains; the floor is the
	// snapshot boundary.
	w.AckShipped(6)
	if got := w.ShipFloor(); got != 4 {
		t.Errorf("ShipFloor = %d after full ack, want 4 (the snapshot seq)", got)
	}
	for cursor := uint64(4); cursor <= 6; cursor++ {
		wantSuffix(cursor)
	}
}

func TestSnapshotMidShipNeverReshipsNorSkips(t *testing.T) {
	// Regression for the cursor audit: a snapshot taken while a backup's
	// cursor is mid-stream must not change what that backup receives.
	// The backup's own contiguity check is the oracle — any skip or
	// re-ship is an AppendShipped error.
	src := New(64)
	sw := NewWAL(64)
	sw.EnableShipping()
	bw := NewWAL(64)
	delivered := 0
	ship := func(recs []Record) {
		t.Helper()
		for _, r := range recs {
			if err := bw.AppendShipped(r); err != nil {
				t.Fatalf("shipped stream broke at seq %d: %v", r.Seq, err)
			}
			delivered++
		}
	}
	workout(t, sw, src)
	// Phase 1: the backup receives and acks a prefix; its cursor rests
	// mid-stream.
	ship(sw.RecordsSince(0)[:3])
	sw.AckShipped(3)
	// The snapshot lands while the cursor is parked at 3.
	if err := sw.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	logged(t, sw, src, Record{Op: OpMkdir, Path: "/post", Client: 9, Call: 1})
	// Phase 2: the cursor resumes from exactly where it stopped.
	ship(sw.RecordsSince(3))
	sw.AckShipped(sw.LastSeq())
	if bw.LastSeq() != sw.LastSeq() {
		t.Errorf("backup log at %d, primary at %d", bw.LastSeq(), sw.LastSeq())
	}
	if want := int(sw.LastSeq()); delivered != want {
		t.Errorf("delivered %d records, want %d (each exactly once)", delivered, want)
	}
}

func TestInstallSnapshotRoundTrip(t *testing.T) {
	// State transfer's landing: a snapshot lifted from one log installs
	// wholesale into another, rebuilding file system, sequence counter,
	// and session table — and a damaged transfer is refused with the
	// target log untouched.
	src := New(64)
	sw := NewWAL(64)
	workout(t, sw, src)
	if err := sw.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	data, snapSeq := sw.SnapshotBytes()
	if data == nil || snapSeq != sw.LastSeq() {
		t.Fatalf("SnapshotBytes = %d bytes through %d, want the full log %d", len(data), snapSeq, sw.LastSeq())
	}

	dst := NewWAL(64)
	damaged := make([]byte, len(data))
	copy(damaged, data)
	damaged[len(damaged)/2] ^= 0x40
	if _, _, err := dst.InstallSnapshot(damaged, snapSeq); err == nil {
		t.Fatal("damaged snapshot installed without error")
	}
	if dst.LastSeq() != 0 || dst.Stats().Installed != 0 {
		t.Fatal("failed install mutated the target log")
	}

	f, sessions, err := dst.InstallSnapshot(data, snapSeq)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fingerprint() != src.Fingerprint() {
		t.Error("installed state diverged from the source")
	}
	if dst.LastSeq() != snapSeq {
		t.Errorf("installed log at %d, want %d", dst.LastSeq(), snapSeq)
	}
	if len(sessions) != 1 || sessions[0].Client != 7 {
		t.Errorf("sessions = %+v, want client 7's carried across", sessions)
	}
	if _, ok := dst.Session(7); !ok {
		t.Error("session table not rebuilt: client 7's last call unanswerable")
	}
	if got := dst.Stats().Installed; got != 1 {
		t.Errorf("Installed = %d, want 1", got)
	}
	// The installed log continues contiguously: the next shipped record
	// is snapSeq+1, nothing else.
	next := Record{Seq: snapSeq + 1, Op: OpMkdir, Path: "/cont", Client: 9, Call: 1}
	next.Sum = recordSum(next)
	if err := dst.AppendShipped(next); err != nil {
		t.Errorf("successor of an installed snapshot rejected: %v", err)
	}
}

func TestQuarantineSnapshotResetsToGenesis(t *testing.T) {
	// When the snapshot itself is rotten nothing below it can be
	// trusted: the whole log is abandoned and the node starts from
	// genesis, counting the loss, ready for full state transfer.
	f := New(64)
	w := NewWAL(64)
	workout(t, w, f)
	if err := w.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	logged(t, w, f, Record{Op: OpMkdir, Path: "/post", Client: 9, Call: 1})
	// Mangle the image's header: its checksum refuses any damaged
	// byte (TestSnapshotRefusesEveryBitFlip flips each one alone).
	for off := 0; off < 8; off++ {
		if !w.CorruptSnapshotByte(off) {
			t.Fatal("no snapshot to damage")
		}
	}
	if _, _, _, err := Recover(w); err == nil {
		t.Fatal("recovery decoded a mangled snapshot")
	}
	w.QuarantineSnapshot()
	g, sessions, replayed, err := Recover(w)
	if err != nil {
		t.Fatalf("recovery from genesis failed: %v", err)
	}
	if replayed != 0 || len(sessions) != 0 || w.LastSeq() != 0 {
		t.Errorf("genesis log replayed %d records, %d sessions, LastSeq %d", replayed, len(sessions), w.LastSeq())
	}
	if g.Fingerprint() != New(64).Fingerprint() {
		t.Error("genesis recovery is not the empty file system")
	}
	st := w.Stats()
	if st.SnapshotsQuarantined != 1 || st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 snapshot and 1 tail record quarantined", st)
	}
}

func TestRecordsSinceMatchesLinearFilter(t *testing.T) {
	// Fixed steps against the model's linear filter, every cursor from
	// below the ship floor to past the last record after each: folded
	// but unacknowledged records, drops above and then at or below the
	// snapshot, a state transfer and a full acknowledgement.
	p := newModelled(t)
	p.enableShipping()
	call := uint32(0)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			call++
			p.append(Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", call), Client: 1, Call: call})
		}
	}
	p.check("empty log")
	appendN(6)
	p.check("append")
	p.snapshot()
	p.check("snapshot with records unacknowledged")
	appendN(4)
	p.check("append after snapshot")
	p.ackShipped(3)
	p.check("AckShipped below the snapshot")
	p.discardFrom(9)
	p.check("DiscardFrom")
	appendN(3)
	p.check("append after discard")
	p.quarantineFrom(5) // below the snapshot: rewinds the log under snapSeq
	p.check("QuarantineFrom below the snapshot")
	appendN(3)
	p.check("append below the snapshot")
	// One record per sequence number: the records the quarantine
	// dropped are gone, and their successors replace them once.
	if got := seqs(p.w.RecordsSince(0)); !reflect.DeepEqual(got, []uint64{4, 5, 6, 7}) {
		t.Fatalf("RecordsSince(0) = %v after a drop below the snapshot, want [4 5 6 7]", got)
	}
	p.snapshot()
	p.ackShipped(p.w.LastSeq() - 2)
	appendN(2)
	p.check("second snapshot, partial ack")
	p.installSnapshot(workoutImage(t), 12)
	p.check("InstallSnapshot")
	appendN(3)
	p.check("append after InstallSnapshot")
	p.ackShipped(p.w.LastSeq())
	p.check("full ack")
}

// seqs lists a batch's sequence numbers, for failure messages.
func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// batchSink keeps the benchmarked batch from being optimised away.
var batchSink []Record

// BenchmarkRecordsSince measures the per-op ship batch: one new record
// above the cursor, on a 256-record tail.
func BenchmarkRecordsSince(b *testing.B) {
	f := New(64)
	w := NewWAL(64)
	w.EnableShipping()
	fd, err := f.Create("/x")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		logged(b, w, f, Record{Op: OpWrite, FD: fd, Data: make([]byte, 64), Client: 1, Call: uint32(i + 1)})
	}
	cursor := w.LastSeq() - 1
	w.AckShipped(cursor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchSink = w.RecordsSince(cursor)
	}
}
