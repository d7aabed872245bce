package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRecorderIsFreeAndSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder claims to be enabled")
	}
	r.Emit(Event{Layer: "layer", Name: "name", Client: 1, Call: 2, Attrs: "k=v"}) // must not panic
	r.EmitAt(Event{T: 10, Layer: "layer", Name: "name", Client: 1, Call: 2})
	r.Observe("class", 42)
	if r.Events() != nil || r.Classes() != nil || r.EventCount() != 0 {
		t.Error("nil recorder returned data")
	}
	if h := r.Histogram("class"); h.Count() != 0 {
		t.Error("nil recorder's histogram recorded")
	}
}

func TestRecorderEventsStampedFromClock(t *testing.T) {
	clk := &ManualClock{}
	r := NewRecorder(clk)
	r.Emit(Event{Layer: "client", Name: "call_start", Client: 1, Call: 1})
	clk.Advance(25)
	r.Emit(Event{Layer: "server", Name: "execute", Client: 1, Call: 1, Attrs: "proc=3"})
	clk.Advance(5)
	r.EmitAt(Event{T: 27.5, Layer: "link", Name: "send", Client: 1, Call: 1})

	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	wantT := []float64{0, 25, 27.5}
	for i, e := range ev {
		if e.T != wantT[i] {
			t.Errorf("event %d: t = %g, want %g", i, e.T, wantT[i])
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestRecorderNilClockStampsZero(t *testing.T) {
	r := NewRecorder(nil)
	r.Emit(Event{Layer: "mach", Name: "run"})
	if ev := r.Events(); len(ev) != 1 || ev[0].T != 0 {
		t.Errorf("events = %+v", ev)
	}
}

func TestSpanEventsFiltersByIdentity(t *testing.T) {
	r := NewRecorder(nil)
	r.Emit(Event{Layer: "client", Name: "call_start", Client: 1, Call: 1})
	r.Emit(Event{Layer: "client", Name: "call_start", Client: 2, Call: 1}) // another client, same call ID
	r.Emit(Event{Layer: "server", Name: "execute", Client: 1, Call: 1})
	r.Emit(Event{Layer: "client", Name: "call_start", Client: 1, Call: 2}) // same client, next call
	r.Emit(Event{Layer: "client", Name: "call_end", Client: 1, Call: 1})

	span := SpanEvents(r.Events(), 1, 1)
	if len(span) != 3 {
		t.Fatalf("span has %d events, want 3", len(span))
	}
	names := make([]string, len(span))
	for i, e := range span {
		names[i] = e.Name
	}
	if got := strings.Join(names, ","); got != "call_start,execute,call_end" {
		t.Errorf("span = %s", got)
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() []Event {
		r := NewRecorder(nil)
		r.EmitAt(Event{T: 1.5, Layer: "client", Name: "call_start", Client: 1, Call: 1, Attrs: "proc=4"})
		r.EmitAt(Event{T: 3, Layer: "fault", Name: "delay", Client: 1, Call: 1, Attrs: "micros=12.25"})
		r.EmitAt(Event{T: 9, Layer: "client", Name: "call_end", Client: 1, Call: 1, Attrs: "status=ok"})
		return r.Events()
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same events encoded to different bytes")
	}
	if !strings.Contains(a.String(), `"layer":"fault"`) || !strings.Contains(a.String(), `"attrs":"proc=4"`) {
		t.Errorf("unexpected JSONL:\n%s", a.String())
	}
	if lines := strings.Count(a.String(), "\n"); lines != 3 {
		t.Errorf("JSONL lines = %d, want 3", lines)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(nil)
	r.EmitAt(Event{T: 0, Layer: "client", Name: "call_start", Client: 1, Call: 1, Attrs: "proc=4"})
	r.EmitAt(Event{T: 2, Layer: "server", Name: "execute", Client: 1, Call: 1, Attrs: "proc=4"})
	r.EmitAt(Event{T: 5, Layer: "client", Name: "call_end", Client: 1, Call: 1, Attrs: "status=ok"})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"B"`, `"ph":"E"`, `"ph":"i"`, `"tid":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, s)
		}
	}
}
