package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinySeconds keeps every workload's timed phases to a handful of
// iterations; set-ups still run in full.
const tinySeconds = 0.05

// exactMetrics are the per-layer metrics the documentation marks exact.
var exactMetrics = []string{
	"fsserver.payload_bytes_per_op", "fsserver.virtual_us_per_op",
	"fsserver.repl_ship_calls_per_op", "fsserver.repl_records_per_ship", "fsserver.repl_lag_ops",
	"fs.cache_hit_ratio", "fs.wal_snapshots_per_kop", "fs.wal_snapshot_kb", "fs.records_bytes",
	"wire.retries_per_op", "wire.served_per_op", "obs.trace_dropped_per_op",
	"workload.goodput_ratio_off", "workload.goodput_ratio_on",
	"workload.executed_per_offered_off", "workload.executed_per_offered_on",
	"workload.retransmits_per_offered_off", "workload.retransmits_per_offered_on",
	"workload.rejected_per_offered_on",
}

func runOrFail(t *testing.T, name string, traced bool, dir string) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&out, name, 7, tinySeconds, traced, dir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v attempted %d failed %d\n%s", name, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrinted runs each workload untraced and traced and
// checks that every metric is reported, and printed, by name with its
// unit — the end-to-end ones never 0.
func TestEveryMetricPrinted(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			res, out := runOrFail(t, name, traced, t.TempDir())
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.name, got.Value)
				}
				if !strings.Contains(out, " "+m.name+" ") || !strings.Contains(out, " "+m.unit+"\n") {
					t.Errorf("%s traced=%v: %s with unit %s not printed", name, traced, m.name, m.unit)
				}
			}
		}
	}
}

// TestExactCountsRepeat runs each workload's traced mode twice with one
// seed: every exact metric must repeat bit for bit, and the second run
// must find the first run's exact-count record and agree with it.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		dir := t.TempDir()
		first, _ := runOrFail(t, name, true, dir)
		second, _ := runOrFail(t, name, true, dir)
		for _, k := range exactMetrics {
			a, b := first.Metrics[k].Value, second.Metrics[k].Value
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: exact %s = %v then %v", name, k, a, b)
			}
		}
		if n := second.Metrics["bench.determinism_mismatches"].Value; n != 0 {
			t.Errorf("%s: %v exact counts differ from the first run's record", name, n)
		}
	}
}

// TestChecksCatchWrongFingerprint gives each workload's correctness
// check a wrong expected fingerprint and requires it to fail.
func TestChecksCatchWrongFingerprint(t *testing.T) {
	for _, name := range workloadNames {
		b, err := newBench(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.setup(7); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.check(); err != nil {
			t.Fatalf("%s: check fails before tampering: %v", name, err)
		}
		switch w := b.(type) {
		case *closedLoop:
			w.wantFP = strings.Repeat("0", len(w.wantFP))
		case *soak:
			w.warm[1].Fingerprint = strings.Repeat("0", len(w.warm[1].Fingerprint))
		}
		if err := b.check(); err == nil {
			t.Errorf("%s: check passes with a wrong expected fingerprint", name)
		}
	}
}

// TestSoakDivergenceFailsCheck makes a timed soak pair differ from the
// warm-up pair: its ops must count as failed, and check must fail even
// after later pairs agree again.
func TestSoakDivergenceFailsCheck(t *testing.T) {
	s := &soak{}
	if err := s.setup(7); err != nil {
		t.Fatal(err)
	}
	s.warm[0].Goodput++
	var lat latHist
	if ops, failed := s.step(&lat); failed != ops {
		t.Errorf("diverging pair: %d of %d ops failed, want all", failed, ops)
	}
	s.warm[0].Goodput--
	if ops, failed := s.step(&lat); failed != 0 || ops == 0 {
		t.Errorf("agreeing pair: %d of %d ops failed, want none", failed, ops)
	}
	if err := s.check(); err == nil {
		t.Error("check passes after a timed pair diverged")
	}
}

// TestHistogramQuantiles checks the latency histogram against exact
// order statistics within its bucket resolution.
func TestHistogramQuantiles(t *testing.T) {
	var h latHist
	var xs []float64
	for i := 1; i <= 10000; i++ {
		ns := int64(i * i % 100003)
		h.add(ns)
		xs = append(xs, float64(ns))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), quantile(xs, q)
		if math.Abs(got-want) > want/64+1 {
			t.Errorf("q%.2f = %.1f, exact %.1f", q, got, want)
		}
	}
	for ns := uint64(0); ns < 1<<20; ns = ns*3/2 + 1 {
		lo, hi := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns lands in bucket [%v, %v)", ns, lo, hi)
		}
	}
}
