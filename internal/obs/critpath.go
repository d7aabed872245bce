package obs

import (
	"fmt"

	"archos/internal/trace"
)

// Critical-path attribution: fold every completed RPC's span into
// per-layer segments and aggregate them into the paper-style cost
// table. The paper's method (Sections 2–3) is to decompose each OS
// operation into primitive costs and count where the architecture
// makes the OS pay; here the "architecture" is the decomposed service
// itself and the segments are the layers an op crosses:
//
//	backoff     client retransmission pauses (jittered exponential)
//	wire        frame transmission time, calls and replies alike
//	queue-wait  NIC queue residence before dispatch (the load
//	            generator's server queue; a stack driven by one
//	            goroutine dispatches every frame it polls at once)
//	fault       injected link delays (chaos runs)
//	service     handler execution + the per-op service charge
//	wal         write-ahead log append (free on the virtual clock —
//	            a 0-width segment is the honest cost in this model)
//	repl-stall  ship → backup apply → ack round trips before the
//	            primary may answer (subtracted from service so the
//	            stall is attributed once)
//	reply-wait  the unattributed remainder of the span: time between
//	            segments — scheduling gaps, open-loop wait between
//	            retransmits, reply delivery
//
// Every input is an Event with a typed Dur recorded on the shared
// virtual clock, so the fold is deterministic: same seed, same table,
// byte for byte.

// Critical-path segment names, in report order.
const (
	SegBackoff   = "backoff"
	SegWire      = "wire"
	SegQueueWait = "queue-wait"
	SegFault     = "fault-delay"
	SegService   = "service"
	SegWAL       = "wal"
	SegReplStall = "repl-stall"
	SegReply     = "reply-wait"
)

var critSegments = []string{
	SegBackoff, SegWire, SegQueueWait, SegFault,
	SegService, SegWAL, SegReplStall, SegReply,
}

// SegmentStat aggregates one layer segment across all folded spans.
type SegmentStat struct {
	Name        string
	Ops         int     // spans with a nonzero contribution
	TotalMicros float64 // summed over all spans
	Hist        *Histogram
}

// CritPath is the aggregated per-layer cost attribution of a trace.
type CritPath struct {
	Ops         int     // completed (status=ok) spans folded
	Skipped     int     // spans without a complete start→ok-end bracket
	TotalMicros float64 // summed span durations
	Segments    []SegmentStat
}

// CriticalPath folds every completed RPC span in events into layer
// segments. A span is folded when it brackets a client call_start and
// a call_end with status=ok; include (nil = all) filters by the
// span's procedure so infrastructure RPCs (replication shipping) are
// not double-counted as service ops. Spans are visited in sorted
// (client, call) order, so the aggregation — float sums included — is
// deterministic.
func CriticalPath(events []Event, include func(proc uint32) bool) *CritPath {
	ix := NewSpanIndex(events)
	cp := &CritPath{Segments: make([]SegmentStat, len(critSegments))}
	for i, name := range critSegments {
		cp.Segments[i] = SegmentStat{Name: name, Hist: &Histogram{}}
	}
	seg := make(map[string]*SegmentStat, len(critSegments))
	for i := range cp.Segments {
		seg[cp.Segments[i].Name] = &cp.Segments[i]
	}

	for _, id := range ix.Identities() {
		span := ix.Span(id[0], id[1])
		// First pass: the span bracket. Only what happens between
		// call_start and call_end belongs to the op — a retransmitted
		// copy still sitting in a queue when the first reply lands pays
		// its wait after the op completed, and must not be attributed.
		var tStart, tEnd float64
		var proc uint32
		started, ended, completed := false, false, false
		for _, e := range span {
			switch {
			case e.Layer == "client" && e.Name == "call_start":
				if !started {
					started, tStart, proc = true, e.T, e.Proc
				}
			case e.Layer == "client" && e.Name == "call_end":
				if !ended {
					ended, tEnd = true, e.T
					completed = e.Attrs == "status=ok"
				}
			}
		}
		if !started {
			continue // infrastructure-only identity (no client span here)
		}
		if !completed {
			cp.Skipped++
			continue
		}
		if include != nil && !include(proc) {
			continue
		}
		var backoff, wire, queue, fault, service, wal, repl float64
		for _, e := range span {
			if e.T < tStart || e.T > tEnd {
				continue
			}
			switch {
			case e.Layer == "client" && e.Name == "retransmit":
				backoff += e.Dur
			case e.Layer == "link" && e.Name == "send":
				wire += e.Dur
			case e.Layer == "queue" && e.Name == "wait":
				queue += e.Dur
			case e.Layer == "fault" && e.Name == "delay":
				fault += e.Dur
			case e.Layer == "server" && e.Name == "served":
				service += e.Dur
			case e.Layer == "wal" && e.Name == "append":
				wal += e.Dur
			case e.Layer == "repl" && e.Name == "ship":
				repl += e.Dur
			}
		}
		// The ship round trips and the WAL append happen inside the
		// handler, so the served duration contains them; subtract so
		// each µs is attributed to exactly one segment.
		service -= repl + wal
		if service < 0 {
			service = 0
		}
		total := tEnd - tStart
		reply := total - (backoff + wire + queue + fault + service + wal + repl)
		if reply < 0 {
			reply = 0
		}
		cp.Ops++
		cp.TotalMicros += total
		add := func(name string, v float64) {
			s := seg[name]
			s.TotalMicros += v
			if v > 0 {
				s.Ops++
				s.Hist.Observe(v)
			}
		}
		add(SegBackoff, backoff)
		add(SegWire, wire)
		add(SegQueueWait, queue)
		add(SegFault, fault)
		add(SegService, service)
		add(SegWAL, wal)
		add(SegReplStall, repl)
		add(SegReply, reply)
	}
	return cp
}

// Table renders the attribution as the paper-style per-layer cost
// table: where each completed op's virtual time went, with per-segment
// percentiles over the ops that paid that segment at all.
func (c *CritPath) Table(title string) *trace.Table {
	t := trace.NewTable(title,
		"Segment", "Ops", "Total µs", "Share", "p50 µs", "p99 µs", "Max µs")
	for i := range c.Segments {
		s := &c.Segments[i]
		share := 0.0
		if c.TotalMicros > 0 {
			share = 100 * s.TotalMicros / c.TotalMicros
		}
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.Ops),
			fmt.Sprintf("%.0f", s.TotalMicros),
			fmt.Sprintf("%.1f%%", share),
			FormatMicros(s.Hist.P50()),
			FormatMicros(s.Hist.P99()),
			FormatMicros(s.Hist.Max()))
	}
	t.AddRow("total",
		fmt.Sprintf("%d", c.Ops),
		fmt.Sprintf("%.0f", c.TotalMicros),
		"100.0%", "", "", "")
	return t
}
