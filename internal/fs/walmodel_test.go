package fs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// walModel is the retention rule of the WAL, written apart from the
// WAL's own code: the log holds one record per sequence number; a
// snapshot or an acknowledgement releases every record at or below
// both the snapshot and the ship cursor; a drop removes every record
// at or above its sequence number and pulls the cursor back to the
// log's end; EnableShipping starts the cursor at the log's end, once.
// The tail is what lies above the snapshot: recovery replays it, and
// the counters count it.
type walModel struct {
	recs     []Record // retained, ascending in Seq
	last     uint64
	snapSeq  uint64
	cursor   uint64 // acknowledged through here, while shipping
	shipping bool
	stats    WALStats
}

// tail counts the retained records above the snapshot.
func (m *walModel) tail() int {
	n := 0
	for _, r := range m.recs {
		if r.Seq > m.snapSeq {
			n++
		}
	}
	return n
}

func (m *walModel) release() {
	floor := m.snapSeq
	if m.shipping {
		floor = min(floor, m.cursor)
	}
	m.recs = slices.DeleteFunc(m.recs, func(r Record) bool { return r.Seq <= floor })
}

// rewind moves the log's end back to last, pulling the cursor with it.
func (m *walModel) rewind(last uint64) {
	m.last = last
	if m.shipping {
		m.cursor = min(m.cursor, last)
	}
}

// drop removes every record at or above seq and returns how many of
// them were tail records.
func (m *walModel) drop(seq uint64) int {
	n := 0
	m.recs = slices.DeleteFunc(m.recs, func(r Record) bool {
		if r.Seq >= seq && r.Seq > m.snapSeq {
			n++
		}
		return r.Seq >= seq
	})
	m.rewind(min(m.last, seq-1))
	return n
}

// since is the model's RecordsSince: every retained record above seq.
func (m *walModel) since(seq uint64) []Record {
	var out []Record
	for _, r := range m.recs {
		if r.Seq > seq {
			out = append(out, r)
		}
	}
	return out
}

func (m *walModel) shipFloor() uint64 {
	if len(m.recs) == 0 {
		return m.snapSeq
	}
	return m.recs[0].Seq - 1
}

func (m *walModel) backlog() int {
	if !m.shipping {
		return 0
	}
	return len(m.since(m.cursor))
}

// modelled applies each log operation to a WAL and to the model alike;
// check compares the two.
type modelled struct {
	t    testing.TB
	w    *WAL
	m    walModel
	fsys *FS // what snapshots capture
}

func newModelled(t testing.TB) *modelled {
	return &modelled{t: t, w: NewWAL(64), fsys: New(64)}
}

func (p *modelled) append(r Record) {
	p.m.recs = append(p.m.recs, p.w.Append(r))
	p.m.last++
	p.m.stats.Appends++
}

func (p *modelled) enableShipping() {
	p.w.EnableShipping()
	if !p.m.shipping {
		p.m.shipping, p.m.cursor = true, p.m.last
	}
}

func (p *modelled) ackShipped(seq uint64) {
	p.w.AckShipped(seq)
	if p.m.shipping {
		p.m.cursor = max(p.m.cursor, min(seq, p.m.last))
	}
	p.m.release()
}

func (p *modelled) snapshot() {
	if err := p.w.Snapshot(p.fsys); err != nil {
		p.t.Fatal(err)
	}
	data, _ := p.w.SnapshotBytes()
	p.m.stats.Snapshots++
	p.m.stats.SnapshotBytes = len(data)
	p.m.stats.Truncated += p.m.tail()
	p.m.snapSeq = p.m.last
	p.m.release()
}

func (p *modelled) quarantineFrom(seq uint64) {
	p.t.Helper()
	n, want := p.w.QuarantineFrom(seq), p.m.drop(seq)
	if n != want {
		p.t.Fatalf("QuarantineFrom(%d) quarantined %d records, model %d", seq, n, want)
	}
	p.m.stats.Quarantined += want
}

func (p *modelled) discardFrom(seq uint64) {
	p.t.Helper()
	n, want := p.w.DiscardFrom(seq), p.m.drop(seq)
	if n != want {
		p.t.Fatalf("DiscardFrom(%d) discarded %d records, model %d", seq, n, want)
	}
	p.m.stats.Discarded += want
}

func (p *modelled) installSnapshot(img []byte, seq uint64) {
	if _, _, err := p.w.InstallSnapshot(img, seq); err != nil {
		p.t.Fatal(err)
	}
	p.m.recs = nil
	p.m.snapSeq = seq
	p.m.rewind(seq)
	p.m.stats.Installed++
	p.m.stats.SnapshotBytes = len(img)
}

// tearAndRecover tears the final tail record, as a crash mid-append
// does, and recovers, which truncates it.
func (p *modelled) tearAndRecover() {
	p.t.Helper()
	if p.w.TearFinalRecord() != (p.m.tail() > 0) {
		p.t.Fatalf("TearFinalRecord disagrees with a tail of %d", p.m.tail())
	}
	if p.m.tail() > 0 {
		p.m.recs = p.m.recs[:len(p.m.recs)-1]
		p.m.rewind(p.m.last - 1)
		p.m.stats.TornTruncated++
	}
	_, _, replayed, err := Recover(p.w)
	if err != nil {
		p.t.Fatalf("Recover after a torn final record: %v", err)
	}
	if replayed != p.m.tail() {
		p.t.Fatalf("Recover replayed %d records, model tail %d", replayed, p.m.tail())
	}
}

// check compares RecordsSince at every cursor, ShipFloor, ShipBacklog,
// SinceSnapshot, SnapSeq, LastSeq and Stats with the model.
func (p *modelled) check(step string) {
	p.t.Helper()
	w, m := p.w, &p.m
	for cursor := uint64(0); cursor <= m.last+1; cursor++ {
		if got, want := w.RecordsSince(cursor), m.since(cursor); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			p.t.Fatalf("%s: RecordsSince(%d) = %v, model %v", step, cursor, seqs(got), seqs(want))
		}
	}
	if got, want := w.ShipFloor(), m.shipFloor(); got != want {
		p.t.Fatalf("%s: ShipFloor = %d, model %d", step, got, want)
	}
	if got, want := w.ShipBacklog(), m.backlog(); got != want {
		p.t.Fatalf("%s: ShipBacklog = %d, model %d", step, got, want)
	}
	if got, want := w.SinceSnapshot(), m.tail(); got != want {
		p.t.Fatalf("%s: SinceSnapshot = %d, model %d", step, got, want)
	}
	if w.SnapSeq() != m.snapSeq || w.LastSeq() != m.last {
		p.t.Fatalf("%s: SnapSeq %d LastSeq %d, model %d and %d", step, w.SnapSeq(), w.LastSeq(), m.snapSeq, m.last)
	}
	if got := w.Stats(); got != m.stats {
		p.t.Fatalf("%s: Stats = %+v, model %+v", step, got, m.stats)
	}
}

// walkWAL decodes ops two bytes at a time — the operation, then its
// argument — and applies each to a fresh WAL and to the model, checking
// one against the other after every step. With below, a drop may reach
// at or under the snapshot; without, drops stay above it.
func walkWAL(t testing.TB, ops []byte, below bool) {
	t.Helper()
	p := newModelled(t)
	img := genesisImage(t)
	// dropSeq picks the first sequence number a drop removes.
	dropSeq := func(arg byte) uint64 {
		if below || p.m.last < p.m.snapSeq {
			return 1 + uint64(arg)%(p.m.last+1)
		}
		return p.m.snapSeq + 1 + uint64(arg)%(p.m.last-p.m.snapSeq+1)
	}
	p.check("new")
	for i := 0; i+1 < len(ops); i += 2 {
		arg := ops[i+1]
		var op string
		switch ops[i] % 10 {
		case 0, 1, 2:
			op = "Append"
			r := Record{Op: OpMkdir, Path: fmt.Sprintf("/d%d", arg), Client: 1, Call: uint32(i)}
			if arg&1 == 1 {
				r = Record{Op: OpWrite, FD: 3, Data: make([]byte, arg), Client: 1, Call: uint32(i)}
			}
			p.append(r)
		case 3:
			op = "EnableShipping"
			p.enableShipping()
		case 4:
			seq := uint64(arg) % (p.m.last + 2)
			op = fmt.Sprintf("AckShipped(%d)", seq)
			p.ackShipped(seq)
		case 5:
			op = "Snapshot"
			p.snapshot()
		case 6:
			seq := dropSeq(arg)
			op = fmt.Sprintf("QuarantineFrom(%d)", seq)
			p.quarantineFrom(seq)
		case 7:
			seq := dropSeq(arg)
			op = fmt.Sprintf("DiscardFrom(%d)", seq)
			p.discardFrom(seq)
		case 8:
			seq := uint64(arg) % (p.m.last + 3)
			op = fmt.Sprintf("InstallSnapshot(%d)", seq)
			p.installSnapshot(img, seq)
		case 9:
			op = "TearFinalRecord+Recover"
			p.tearAndRecover()
		}
		p.check(fmt.Sprintf("step %d (%s)", i/2+1, op))
	}
}

// TestWALMatchesRetentionModel walks 400 seeded sequences of 60 log
// operations against the model, drops anywhere.
func TestWALMatchesRetentionModel(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		ops := make([]byte, 2*60)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { walkWAL(t, ops, true) })
	}
}

// FuzzWALLog drives the walk's op decoder with arbitrary bytes, drops
// anywhere, and checks the log against the model after every step.
func FuzzWALLog(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 0, 2, 5, 0, 0, 3, 4, 1, 7, 2, 9, 0})
	f.Add([]byte{3, 0, 0, 1, 0, 2, 5, 0, 0, 3, 6, 1, 0, 4, 8, 7, 0, 5, 4, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2*256 {
			ops = ops[:2*256]
		}
		walkWAL(t, ops, true)
	})
}
