package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run: a Service call, a
// probe call (or a batch of calls, for nanosecond-scale probes), or a
// phase enclosing them. Spans of one op share its op identifier.
type span struct {
	name   int32
	parent int32 // index of the enclosing span, -1 at the top
	op     uint64
	start  int64 // ns since the tracer started
	end    int64
}

// tracer keeps the benchmark's spans in memory; write dumps them when
// the run ends. It records only around calls the benchmark makes into
// the program's public functions: nothing inside the program is
// instrumented.
type tracer struct {
	t0    time.Time
	names []string
	ids   map[string]int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ids: map[string]int32{}} }

func (t *tracer) id(name string) int32 {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.names = append(t.names, name)
	t.ids[name] = int32(len(t.names) - 1)
	return t.ids[name]
}

// add records a finished span and returns its index.
func (t *tracer) add(name, parent int32, op uint64, start time.Time, ns int64) int32 {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: s, end: s + ns})
	return int32(len(t.spans) - 1)
}

// open starts a span that end closes.
func (t *tracer) open(name string, parent int32) int32 {
	return t.add(t.id(name), parent, 0, time.Now(), 0)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.t0).Nanoseconds() }

// durations returns the durations in ns of every span named name.
func (t *tracer) durations(name string) *latHist {
	h := &latHist{}
	id, ok := t.ids[name]
	if !ok {
		return h
	}
	for _, s := range t.spans {
		if s.name == id {
			h.add(s.end - s.start)
		}
	}
	return h
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		line := struct {
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
			Op      uint64 `json:"op"`
		}{t.names[s.name], s.start, s.end, s.parent, s.op}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe times fn in batches of batch calls, one span per batch under a
// "probe.<name>" span, until d has elapsed, and returns the mean ns per
// call.
func (t *tracer) probe(name string, d time.Duration, batch int, fn func(i int)) float64 {
	parent := t.open("probe."+name, -1)
	id := t.id(name)
	calls := 0
	var total int64
	start := time.Now()
	for calls == 0 || time.Since(start) < d {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(calls + j)
		}
		ns := time.Since(t0).Nanoseconds()
		t.add(id, parent, uint64(calls), t0, ns)
		total += ns
		calls += batch
	}
	t.end(parent)
	return float64(total) / float64(calls)
}

// layerRow is one line of the per-layer table: host µs per op next to
// the virtual µs the cost model charges the same layer.
type layerRow struct {
	layer          string
	hostUs, virtUs float64
}

// printTable prints rows in the shape of the paper's Tables 3 and 4,
// closing them with the unattributed residual and the total they sum
// to.
func printTable(out io.Writer, title string, rows []layerRow, totalHost, totalVirt float64) float64 {
	var sumHost, sumVirt float64
	for _, r := range rows {
		sumHost += r.hostUs
		sumVirt += r.virtUs
	}
	resid := totalHost - sumHost
	fmt.Fprintf(out, "\n%s\n%-48s %12s %7s %14s\n", title, "layer", "host µs/op", "share", "virtual µs/op")
	line := func(name string, h, v float64) {
		fmt.Fprintf(out, "%-48s %12.3f %6.1f%% %14.3f\n", name, h, 100*h/totalHost, v)
	}
	for _, r := range rows {
		line(r.layer, r.hostUs, r.virtUs)
	}
	line("unattributed", resid, totalVirt-sumVirt)
	line("total (untraced mean op)", totalHost, totalVirt)
	return resid
}
