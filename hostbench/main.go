package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, united result.
type metric struct{ name, unit string }

// e2eMetrics are what a user of the file service sees, measured with
// tracing off. Throughput and CPU time per op are printed beside them
// but not reported: on a shared machine they follow the other guests'
// load too closely to gate on (see the package documentation), and the
// traced run reports them as bench.untraced_ops_per_s and
// runtime.cpu_us_per_op.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p95_us", "us"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
	{"success_ratio", "ratio"},
}

// layerMetrics are the traced run's per-layer results. A workload
// whose path does not cross a layer reports 0 for it.
var layerMetrics = []metric{
	{"fsserver.stat_p50_us", "us"},
	{"fsserver.read_p50_us", "us"},
	{"fsserver.write_p50_us", "us"},
	{"fsserver.create_p50_us", "us"},
	{"fsserver.over_direct", "ratio"},
	{"fsserver.payload_bytes_per_op", "B"},
	{"fsserver.virtual_us_per_op", "us"},
	{"fsserver.repl_ship_calls_per_op", "count"},
	{"fsserver.repl_records_per_ship", "count"},
	{"fsserver.repl_lag_ops", "count"},
	{"fs.direct_op_us", "us"},
	{"fs.cache_hit_ratio", "ratio"},
	{"fs.wal_append_us", "us"},
	{"fs.wal_snapshot_ms", "ms"},
	{"fs.wal_snapshots_per_kop", "count"},
	{"fs.wal_snapshot_kb", "KB"},
	{"fs.records_encode_us", "us"},
	{"fs.records_decode_us", "us"},
	{"fs.records_bytes", "B"},
	{"fs.wal_apply_shipped_us", "us"},
	{"wire.raw_call_us", "us"},
	{"wire.boxed_call_us", "us"},
	{"wire.failover_call_us", "us"},
	{"wire.frame_codec_ns", "ns"},
	{"wire.retries_per_op", "count"},
	{"wire.served_per_op", "count"},
	{"obs.emit_ns", "ns"},
	{"obs.recorder_slowdown", "ratio"},
	{"obs.recorder_allocs_per_op", "count"},
	{"obs.trace_dropped_per_op", "count"},
	{"workload.goodput_ratio_off", "ratio"},
	{"workload.goodput_ratio_on", "ratio"},
	{"workload.executed_per_offered_off", "ratio"},
	{"workload.executed_per_offered_on", "ratio"},
	{"workload.retransmits_per_offered_off", "ratio"},
	{"workload.retransmits_per_offered_on", "ratio"},
	{"workload.rejected_per_offered_on", "ratio"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"bench.untraced_ops_per_s", "ops/s"},
	{"bench.traced_ops_per_s", "ops/s"},
	{"bench.unattributed_us", "us"},
	{"bench.determinism_mismatches", "count"},
}

// A run builds its arrangement from scratch at least minSetups times,
// and more until setupBudget has gone on set-ups or maxSetups is
// reached; setup_s is their median. Each set-up also re-derives the
// exact counts, so every run checks them against itself.
const (
	minSetups   = 5
	maxSetups   = 41
	setupBudget = 2 * time.Second
)

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for span dumps and exact-count records")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(os.Stdout, *name, *seed, *seconds, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result; human-readable
// lines go to out first. A failed correctness check is a result
// (correct false, every op failed), not an error.
func run(out io.Writer, name string, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	if _, err := newBench(name); err != nil {
		return nil, err
	}
	host := hostFingerprint()
	fmt.Fprintf(out, "workload %s  seed %d  seconds %g  trace %v\n", name, seed, seconds, traced)

	// Set up from scratch several times: the last arrangement is the one
	// measured. Exact counts must agree bit for bit across set-ups.
	var b bench
	var setupS []float64
	var exact map[string]float64
	var problems []string
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		b, _ = newBench(name)
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		e := b.exact()
		if exact != nil {
			for _, k := range diffExact(exact, e) {
				problems = append(problems, fmt.Sprintf("exact %s differs between set-ups", k))
			}
		}
		exact = e
	}

	var res *result
	var err error
	steal0, t0 := stealTicks(), time.Now()
	if traced {
		res, err = runTraced(out, b, name, seed, seconds, exact, outDir)
	} else {
		res = runE2E(out, b, seconds, median(setupS), len(setupS))
	}
	if err != nil {
		return nil, err
	}
	host.StealFrac = stealFrac(stealTicks()-steal0, time.Since(t0))
	if cerr := b.check(); cerr != nil {
		problems = append(problems, cerr.Error())
	}

	// Determinism across runs: exact counts must repeat for the same
	// seed and the same build.
	mism, derr := compareExactRecord(outDir, name, seed, exact)
	if derr != nil {
		fmt.Fprintln(out, "determinism record:", derr)
	}
	for _, k := range mism {
		problems = append(problems, fmt.Sprintf("exact %s differs from an earlier run with seed %d", k, seed))
	}
	if traced {
		res.Metrics["bench.determinism_mismatches"] = metricValue{float64(len(mism)), "count"}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(out, "CHECK FAILED:", p)
		}
		res.Correct = false
		res.Failed = res.Attempted
		if !traced {
			res.Metrics["success_ratio"] = metricValue{0, "ratio"}
		}
	}
	printMetrics(out, res)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hj)
	return res, nil
}

// runE2E is the untraced run: the timed loop and the end-to-end metrics.
func runE2E(out io.Writer, b bench, seconds, setupS float64, setups int) *result {
	ls := timedLoop(seconds, slicesFor(b), b.step)
	res := &result{Correct: true, Attempted: ls.ops, Failed: ls.failed, Metrics: map[string]metricValue{}}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(e2eMetrics, name)} }
	set("setup_s", setupS)
	set("op_p50_us", ls.latUs(0.50))
	set("op_p95_us", ls.latUs(0.95))
	if s, ok := b.(*soak); ok {
		// A timed pair that diverged makes check fail, and run then
		// zeroes this.
		set("success_ratio", s.goodput())
	} else {
		set("success_ratio", float64(ls.ops-ls.failed)/float64(ls.ops))
	}
	set("allocs_per_op", ls.allocsPerOp())
	set("heap_live_mb", ls.heapLiveMB())
	res.Correct = ls.failed == 0
	fmt.Fprintf(out, "set-ups: %d\ntimed loop: %d ops in %d slices, %.2f s\n", setups, ls.ops, len(ls.slices), ls.wall.Seconds())
	fmt.Fprintf(out, "not gated: ops_per_s %.6g ops/s, cpu_us_per_op %.6g us\n", ls.opsPerSec(), ls.cpuUsPerOp())
	return res
}

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.name == name {
			return m.unit
		}
	}
	panic("unknown metric " + name)
}

func printMetrics(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := res.Metrics[k]
		fmt.Fprintf(out, "  %-40s %16.6g %s\n", k, v.Value, v.Unit)
	}
	fmt.Fprintf(out, "correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
}

// diffExact lists the keys whose values are not bit-identical.
func diffExact(a, b map[string]float64) []string {
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// compareExactRecord checks exact against the record an earlier run of
// this binary left for the same workload and seed, or leaves one.
func compareExactRecord(dir, name string, seed int64, exact map[string]float64) ([]string, error) {
	id, err := buildID()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "exact", fmt.Sprintf("%s-seed%d-%s.json", name, seed, id))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		return diffExact(prev, exact), nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	data, err := json.Marshal(exact)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, data, 0o644)
}

// buildID names this binary by the hash of its bytes, so exact counts
// are only compared between runs of the same program.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6]), nil
}
