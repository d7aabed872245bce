// Package obs is the deterministic observability layer of the
// decomposed OS stack: causally ordered spans/events in virtual time,
// fixed-bucket latency histograms, metrics snapshots, and JSONL /
// Chrome trace_event exporters. The paper's method is to
// *measure* primitive operations and count how often each OS structure
// pays them; this package is the measuring instrument for our
// reproduction — and, like the simulation it observes, it is
// deterministic: with the same seed and the same (single-goroutine)
// drive, two runs emit byte-identical traces.
//
// Everything is nil-safe: a nil *Recorder (observability disabled)
// makes every recording call a no-op without conditionals at the call
// site, so the instrumented hot paths cost nothing when tracing is off.
//
// Retention is bounded: the recorder is a ring. It grows lazily up to
// its capacity and then overwrites the oldest events, so an always-on
// recorder under a 10^6-session soak holds the most recent window in
// fixed memory — a flight recorder. Dropped() counts the overwritten
// prefix.
package obs

import (
	"slices"
	"sort"
)

// Clock is a virtual-time source in microseconds. wire.Link satisfies
// it; subsystems without a natural clock use a ManualClock or nil (all
// events stamped 0, ordering carried by Seq alone).
type Clock interface {
	Clock() float64
}

// ManualClock is a settable virtual clock for layers that are not
// driven by a wire link.
type ManualClock struct {
	t float64
}

// Clock returns the current virtual time.
func (m *ManualClock) Clock() float64 {
	return m.t
}

// Advance moves the clock forward by d microseconds.
func (m *ManualClock) Advance(d float64) {
	m.t += d
}

// Event is one observation on the virtual-time line. Events carrying
// the same (Client, Call) pair form the span of one RPC: the causal
// chain from the client's send through the link's fault decisions and
// the server's execute or cache hit to the reply's delivery. Seq is a
// recorder-global sequence number: the total order events were
// recorded in, which on a single-goroutine drive is the causal order.
//
// Proc, Dur, and Val are typed attributes for the hot path: recording
// them costs no allocation, where formatting them into Attrs would.
// Dur is a duration in virtual µs (a span segment: a backoff sleep, a
// frame's wire time, a handler's service time); Val is a dimensionless
// auxiliary (bytes, a backup index, a WAL sequence, a reject reason).
// Attrs is reserved for cold-path events and constant strings.
type Event struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"` // virtual µs
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Client uint32  `json:"client,omitempty"`
	Call   uint32  `json:"call,omitempty"`
	Proc   uint32  `json:"proc,omitempty"`
	Dur    float64 `json:"dur,omitempty"`   // segment duration, virtual µs
	Val    float64 `json:"val,omitempty"`   // auxiliary value (bytes, seq, reason…)
	Attrs  string  `json:"attrs,omitempty"` // preformatted "k=v k=v", deterministic
}

// DefaultEventCap is the ring capacity of a recorder built with
// NewRecorder: large enough that every existing chaos/crash/failover
// soak fits without wrapping (their full traces stay byte-identical),
// small enough to bound an always-on recorder to tens of MB.
const DefaultEventCap = 1 << 18

// Recorder collects events and histograms. Create one per experiment
// with the virtual clock the traced layers share (usually the wire
// link) and attach it with Link.SetRecorder; a nil recorder is the
// disabled state. A recorder takes no locks: it belongs to the
// goroutine that owns the stack it is attached to (see package wire),
// so its ring has a single writer.
type Recorder struct {
	clock Clock // nil stamps events at 0

	seq     uint64
	cap     int
	head    int // index of the oldest event once the ring is full
	dropped uint64
	ring    []Event
	hists   map[string]*Histogram
}

// NewRecorder builds a recorder stamping events from clock (nil for a
// sequence-only recorder). Storage grows lazily up to DefaultEventCap
// and then wraps.
func NewRecorder(clock Clock) *Recorder {
	return &Recorder{clock: clock, cap: DefaultEventCap}
}

// NewFlightRecorder builds a recorder whose ring is preallocated at
// the given capacity: recording never allocates, so it can stay
// attached to the zero-alloc hot path, and memory is fixed up front —
// the always-on configuration for load soaks. capacity ≤ 0 falls back
// to DefaultEventCap.
func NewFlightRecorder(clock Clock, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Recorder{clock: clock, cap: capacity, ring: make([]Event, 0, capacity)}
}

// Enabled reports whether the recorder actually records — the nil
// fast-path predicate spelled out.
func (r *Recorder) Enabled() bool { return r != nil }

// now reads the recorder's clock.
func (r *Recorder) now() float64 {
	if r.clock == nil {
		return 0
	}
	return r.clock.Clock()
}

// Emit records a fully-typed event stamped with the recorder's clock
// (e.T is overwritten; e.Seq is assigned). Safe on a nil recorder.
// This is the hot-path form: with constant Layer/Name strings and the
// numeric fields it performs no allocation, and it inlines, leaving
// one call (emit) per event.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.emit(&e)
}

// EmitAt records a fully-typed event with the caller's timestamp — the
// form for a caller that already has the time in hand (wire.Link
// stamps a send with the reading its wire-time charge returned). It
// inlines, so the event is written once, straight into its ring slot.
func (r *Recorder) EmitAt(e Event) {
	if r == nil {
		return
	}
	s := r.slot()
	*s = e
	s.Seq = r.seq
}

// slot is next kept out of line, so that EmitAt, its one caller on the
// hot path, is small enough to inline into each emitting site.
//
//go:noinline
func (r *Recorder) slot() *Event { return r.next() }

// emit is Emit's out-of-line half: it reads the clock and writes the
// event, stamped, into its slot. It takes the event by pointer, which
// keeps Emit small enough to inline into each emitting site (the clock
// read alone would not fit), and the event is still copied once.
//
//go:noinline
func (r *Recorder) emit(e *Event) {
	t := r.now()
	s := r.next()
	*s = *e
	s.T, s.Seq = t, r.seq
}

// next advances the sequence number and returns the ring slot the
// event that takes it is written into: the next free one while the
// ring grows, then the oldest, which it overwrites. Wrapping is as
// deterministic as recording: same event stream in, same retained
// window out.
func (r *Recorder) next() *Event {
	r.seq++
	if n := len(r.ring); n < r.cap {
		r.ring = append(r.ring, Event{})
		return &r.ring[n]
	}
	s := &r.ring[r.head]
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	r.dropped++
	return s
}

// Observe records a value into the named histogram class, creating it
// on first use. Safe on a nil recorder.
func (r *Recorder) Observe(class string, v float64) {
	r.Histogram(class).Observe(v)
}

// Histogram returns the live histogram for class, creating it on first
// use. On a nil recorder it returns nil, whose methods all behave as
// an empty histogram.
func (r *Recorder) Histogram(class string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[class]
	if !ok {
		if r.hists == nil {
			r.hists = map[string]*Histogram{}
		}
		h = &Histogram{}
		r.hists[class] = h
	}
	return h
}

// Classes returns the histogram class names in sorted order.
func (r *Recorder) Classes() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Events returns a copy of the retained event stream in Seq order —
// the full trace if the ring never wrapped, else the most recent
// Cap() events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// TakeEvents returns the retained event stream in Seq order, as Events
// does, but hands over the ring itself instead of copying it: the ring
// is rotated into order in place, and the recorder is left empty, to
// record into a fresh ring. The sequence and dropped counts carry on.
func (r *Recorder) TakeEvents() []Event {
	if r == nil {
		return nil
	}
	out := r.ring
	slices.Reverse(out[:r.head])
	slices.Reverse(out[r.head:])
	slices.Reverse(out)
	r.ring, r.head = nil, 0
	return out
}

// EventCount returns the number of retained events.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// SpanIndex indexes an event stream by (client, call) identity so that
// per-RPC span lookups are O(span) instead of a linear scan of the
// whole trace — the difference between linear and quadratic when a
// driver walks every span of a big trace.
type SpanIndex struct {
	events []Event
	idx    map[uint64][]int32
}

func spanKey(client, call uint32) uint64 {
	return uint64(client)<<32 | uint64(call)
}

// NewSpanIndex builds the index in one pass. The events slice is
// retained (not copied).
func NewSpanIndex(events []Event) *SpanIndex {
	ix := &SpanIndex{events: events, idx: make(map[uint64][]int32)}
	for i, e := range events {
		if e.Client == 0 && e.Call == 0 {
			continue // ambient events (crash, restart, failover) span nothing
		}
		k := spanKey(e.Client, e.Call)
		ix.idx[k] = append(ix.idx[k], int32(i))
	}
	return ix
}

// Span returns one RPC's events — those carrying the given (client,
// call) identity — in recorded order.
func (ix *SpanIndex) Span(client, call uint32) []Event {
	ids := ix.idx[spanKey(client, call)]
	if len(ids) == 0 {
		return nil
	}
	out := make([]Event, len(ids))
	for i, j := range ids {
		out[i] = ix.events[j]
	}
	return out
}

// Identities returns every (client, call) pair present, sorted — the
// deterministic iteration order for whole-trace folds.
func (ix *SpanIndex) Identities() [][2]uint32 {
	keys := make([]uint64, 0, len(ix.idx))
	for k := range ix.idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][2]uint32, len(keys))
	for i, k := range keys {
		out[i] = [2]uint32{uint32(k >> 32), uint32(k)}
	}
	return out
}

// SpanEvents filters an event stream down to one RPC's span, in
// recorded order. For a single lookup this is fine; a caller walking
// many spans should build a SpanIndex once instead.
func SpanEvents(events []Event, client, call uint32) []Event {
	var out []Event
	for _, e := range events {
		if e.Client == client && e.Call == call {
			out = append(out, e)
		}
	}
	return out
}
