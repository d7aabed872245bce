package obs

import (
	"reflect"
	"testing"
)

type tickClock struct{ t float64 }

func (c *tickClock) Clock() float64 { c.t++; return c.t }

// TestFlightRingWraparound: a full ring overwrites oldest-first, keeps
// exactly the last cap events in emission order, and counts what it
// dropped — the bounded-memory contract of the flight recorder.
func TestFlightRingWraparound(t *testing.T) {
	rec := NewFlightRecorder(&tickClock{}, 8)
	if rec.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", rec.Cap())
	}
	for i := 0; i < 20; i++ {
		rec.Emit(Event{Layer: "l", Name: "e", Val: float64(i)})
	}
	if got := rec.EventCount(); got != 8 {
		t.Errorf("EventCount() = %d, want 8", got)
	}
	if got := rec.Dropped(); got != 12 {
		t.Errorf("Dropped() = %d, want 12", got)
	}
	events := rec.Events()
	if len(events) != 8 {
		t.Fatalf("Events() returned %d events, want 8", len(events))
	}
	for i, e := range events {
		if want := float64(12 + i); e.Val != want {
			t.Errorf("events[%d].Val = %g, want %g (last 8 retained)", i, e.Val, want)
		}
		if i > 0 && events[i].Seq <= events[i-1].Seq {
			t.Errorf("Seq not increasing across the wrap at index %d", i)
		}
	}
}

// TestFlightRingExactFit: emitting exactly cap events drops nothing
// and returns them all in order — the wrap boundary itself.
func TestFlightRingExactFit(t *testing.T) {
	rec := NewFlightRecorder(&tickClock{}, 4)
	for i := 0; i < 4; i++ {
		rec.Emit(Event{Layer: "l", Name: "e", Val: float64(i)})
	}
	if rec.Dropped() != 0 {
		t.Errorf("Dropped() = %d after an exact fit, want 0", rec.Dropped())
	}
	events := rec.Events()
	for i, e := range events {
		if e.Val != float64(i) {
			t.Errorf("events[%d].Val = %g, want %d", i, e.Val, i)
		}
	}
	// One more event tips the ring: the oldest goes, the rest shift.
	rec.Emit(Event{Layer: "l", Name: "e", Val: 4})
	if rec.Dropped() != 1 {
		t.Errorf("Dropped() = %d after one overwrite, want 1", rec.Dropped())
	}
	if got := rec.Events()[0].Val; got != 1 {
		t.Errorf("oldest retained Val = %g, want 1", got)
	}
}

// TestTakeEventsHandsOverTheRing: TakeEvents returns what Events
// would, in Seq order, before the ring wraps, at the exact fit and
// after wrapping at every offset, without copying the ring; the
// recorder is left empty and records into a fresh ring afterwards.
func TestTakeEventsHandsOverTheRing(t *testing.T) {
	for _, n := range []int{0, 3, 7, 8, 9, 12, 15, 16, 21} {
		rec := NewFlightRecorder(&tickClock{}, 8)
		for i := 0; i < n; i++ {
			rec.Emit(Event{Layer: "l", Name: "e", Val: float64(i)})
		}
		want := rec.Events()
		ring := rec.ring
		got := rec.TakeEvents()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d events: TakeEvents = %v, want Events' %v", n, got, want)
		}
		if len(got) > 0 && &got[0] != &ring[0] {
			t.Errorf("%d events: TakeEvents copied the ring instead of handing it over", n)
		}
		if c := rec.EventCount(); c != 0 || len(rec.Events()) != 0 {
			t.Errorf("%d events: recorder holds %d events after TakeEvents, want 0", n, c)
		}
		rec.Emit(Event{Layer: "l", Name: "after"})
		if ev := rec.Events(); len(ev) != 1 || ev[0].Name != "after" || ev[0].Seq != uint64(n+1) {
			t.Errorf("%d events: recording after TakeEvents gave %v, want one event with Seq %d", n, ev, n+1)
		}
		if len(got) > 0 && got[len(got)-1].Name != "e" {
			t.Errorf("%d events: recording after TakeEvents wrote into the handed-over ring", n)
		}
	}
	var nilRec *Recorder
	if got := nilRec.TakeEvents(); got != nil {
		t.Errorf("nil recorder TakeEvents = %v, want nil", got)
	}
}

// TestSpanIndexMatchesLinearScan: the indexed lookup returns exactly
// what the linear scan does, for every identity, and Identities lists
// them in sorted order.
func TestSpanIndexMatchesLinearScan(t *testing.T) {
	var events []Event
	for i := 0; i < 60; i++ {
		events = append(events, Event{
			Seq: uint64(i + 1), Layer: "client", Name: "e",
			Client: uint32(i%3 + 1), Call: uint32(i % 5),
		})
	}
	events = append(events, Event{Seq: 100, Layer: "link", Name: "ambient"})

	ix := NewSpanIndex(events)
	ids := ix.Identities()
	if len(ids) == 0 {
		t.Fatal("no identities indexed")
	}
	for i := 1; i < len(ids); i++ {
		a := uint64(ids[i-1][0])<<32 | uint64(ids[i-1][1])
		b := uint64(ids[i][0])<<32 | uint64(ids[i][1])
		if a >= b {
			t.Fatalf("Identities() not sorted at %d", i)
		}
	}
	for _, id := range ids {
		want := SpanEvents(events, id[0], id[1])
		got := ix.Span(id[0], id[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Span(%d,%d) diverges from the linear scan", id[0], id[1])
		}
	}
	if got := ix.Span(99, 99); len(got) != 0 {
		t.Errorf("Span of an unknown identity returned %d events", len(got))
	}
}

// TestCriticalPathFold: a hand-built span folds into the expected
// segment attribution — service minus the ship and WAL time it
// contains, the remainder landing in reply-wait — while incomplete
// spans are skipped and filtered procs excluded.
func TestCriticalPathFold(t *testing.T) {
	events := []Event{
		{Seq: 1, T: 0, Layer: "client", Name: "call_start", Client: 1, Call: 1, Proc: 5},
		{Seq: 2, T: 2, Layer: "link", Name: "send", Client: 1, Call: 1, Dur: 2},
		{Seq: 3, T: 5, Layer: "queue", Name: "wait", Client: 1, Call: 1, Dur: 3},
		{Seq: 4, T: 15, Layer: "server", Name: "served", Client: 1, Call: 1, Dur: 10},
		{Seq: 5, T: 12, Layer: "wal", Name: "append", Client: 1, Call: 1},
		{Seq: 6, T: 14, Layer: "repl", Name: "ship", Client: 1, Call: 1, Dur: 4},
		{Seq: 7, T: 20, Layer: "client", Name: "call_end", Client: 1, Call: 1, Dur: 20, Attrs: "status=ok"},

		// An abandoned span: bracketed start, no ok end — skipped.
		{Seq: 8, T: 0, Layer: "client", Name: "call_start", Client: 2, Call: 1, Proc: 5},
		{Seq: 9, T: 9, Layer: "client", Name: "call_end", Client: 2, Call: 1, Attrs: "status=timeout"},

		// An infrastructure span the include filter must exclude.
		{Seq: 10, T: 0, Layer: "client", Name: "call_start", Client: 3, Call: 1, Proc: 100},
		{Seq: 11, T: 4, Layer: "client", Name: "call_end", Client: 3, Call: 1, Attrs: "status=ok"},
	}

	cp := CriticalPath(events, func(proc uint32) bool { return proc < 100 })
	if cp.Ops != 1 {
		t.Fatalf("Ops = %d, want 1 (timeout skipped, proc 100 filtered)", cp.Ops)
	}
	if cp.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", cp.Skipped)
	}
	if cp.TotalMicros != 20 {
		t.Errorf("TotalMicros = %g, want 20", cp.TotalMicros)
	}
	want := map[string]float64{
		SegWire:      2,
		SegQueueWait: 3,
		SegService:   6, // served 10 minus ship 4 minus wal 0
		SegWAL:       0,
		SegReplStall: 4,
		SegReply:     5, // 20 - (2+3+6+0+4)
		SegBackoff:   0,
		SegFault:     0,
	}
	for _, s := range cp.Segments {
		if s.TotalMicros != want[s.Name] {
			t.Errorf("segment %s total = %g, want %g", s.Name, s.TotalMicros, want[s.Name])
		}
	}
	if tab := cp.Table("t").String(); tab == "" {
		t.Error("Table rendered empty")
	}

	// Unfiltered, the infrastructure span would be folded too.
	if all := CriticalPath(events, nil); all.Ops != 2 {
		t.Errorf("unfiltered Ops = %d, want 2", all.Ops)
	}
}
