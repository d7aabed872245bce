package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/ipc/wire/wirebench"
	"archos/internal/kernel"
	"archos/internal/obs"
	"archos/internal/trace"
)

// The benchmark trajectory: `rpcbench -bench` measures the RPC hot
// path's real-time costs (ns/op, allocs/op, B/op per call class) plus
// the deterministic virtual-time latency percentiles of the decomposed
// file service, and writes them as JSON. The committed BENCH_rpc.json
// is the trajectory: regenerate it with `make bench` when the hot path
// legitimately moves, and CI replays `-benchcompare` against it so an
// accidental ns/op or allocs/op regression fails the build.

// benchTolerance is how much slower (ns/op) a benchmark may run before
// -benchcompare calls it a regression. Wall-clock noise between
// machines and runs is real; allocation counts are not noisy, so any
// allocs/op increase fails outright.
const benchTolerance = 1.20

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchFile struct {
	Note             string                        `json:"note"`
	GoMaxProcs       int                           `json:"gomaxprocs"`
	Benchmarks       []benchResult                 `json:"benchmarks"`
	VirtualTimeMicro map[string]map[string]float64 `json:"virtual_time_micros"`
}

// benchProbes is the measured set, in trajectory order.
var benchProbes = []struct {
	name  string
	probe func(*testing.B)
}{
	{"codec/small", wirebench.CodecSmall},
	{"call/raw-small", wirebench.RawCallSmall},
	{"call/raw-small-traced", wirebench.RawCallSmallTraced},
	{"call/boxed-small", wirebench.BoxedCallSmall},
	{"call/raw-1k", wirebench.RawCall1K},
	{"throughput/8-clients", wirebench.Throughput(8)},
	{"call/replicated-write", replicatedWrite},
}

// replicatedWrite times one 2 KiB Write through a primary with two
// backups: the client call, the WAL append, and the ship of the record
// to both backups before the reply. Every 64 writes the file is
// re-created off the clock, so the state each node snapshots stays
// bounded however large b.N grows.
func replicatedWrite(b *testing.B) {
	cfg := fsserver.DefaultReplicaConfig()
	cfg.Backups = 2
	r := fsserver.NewCluster(64, kernel.NewCostModel(arch.R3000), cfg).NewClient()
	payload := make([]byte, 2048)
	fd := -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			if fd >= 0 {
				if err := r.Close(fd); err != nil {
					b.Fatal("close failed:", err)
				}
			}
			var err error
			if fd, err = r.Create("/w"); err != nil {
				b.Fatal("create failed:", err)
			}
			b.StartTimer()
		}
		if _, err := r.Write(fd, payload); err != nil {
			b.Fatal("replicated write failed:", err)
		}
	}
}

// runBench measures every probe and the virtual-time percentiles,
// prints the table, writes benchout if given, and compares against
// benchcompare if given (exiting nonzero on regression). A probe that
// fails is named and left out of the table and the file; the others
// still run and print, and the command exits nonzero.
func runBench(benchout, benchcompare string) {
	// Outside `go test` the testing flags are unregistered, and a probe's
	// b.Error or b.Fatal would dereference them.
	testing.Init()
	cur := benchFile{
		Note:       "RPC hot-path trajectory; regenerate with `make bench` (rpcbench -bench -benchout BENCH_rpc.json)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var failed []string
	for _, p := range benchProbes {
		// A failure after the first round shows only on the B: the
		// result holds the failed round. A zero result (first round
		// failed or skipped) would put NaN in the file.
		ok := true
		r := testing.Benchmark(func(b *testing.B) {
			defer func() { ok = !b.Failed() }()
			p.probe(b)
		})
		if !ok || r.N == 0 {
			fmt.Fprintf(os.Stderr, "benchmark probe %s failed\n", p.name)
			failed = append(failed, p.name)
			continue
		}
		cur.Benchmarks = append(cur.Benchmarks, benchResult{
			Name:        p.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	cur.VirtualTimeMicro = virtualTimePercentiles()

	t := trace.NewTable("RPC hot path (real time per op)",
		"Benchmark", "ns/op", "allocs/op", "B/op")
	for _, r := range cur.Benchmarks {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp))
	}
	fmt.Println(t)

	vt := trace.NewTable("Decomposed file service latency under chaos (virtual µs, deterministic)",
		"Class", "p50", "p99")
	for _, class := range []string{"fsserver.op"} {
		if p, ok := cur.VirtualTimeMicro[class]; ok {
			vt.AddRow(class, fmt.Sprintf("%.1f", p["p50"]), fmt.Sprintf("%.1f", p["p99"]))
		}
	}
	fmt.Println(vt)

	if benchout != "" && len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark trajectory not written to %s: %d probe(s) failed\n", benchout, len(failed))
	} else if benchout != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench encode failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchout, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench write failed:", err)
			os.Exit(1)
		}
		fmt.Printf("benchmark trajectory written to %s\n", benchout)
	}
	if benchcompare != "" && !compareBench(benchcompare, cur) {
		os.Exit(1)
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

// virtualTimePercentiles replays the deterministic chaos soak and
// returns each latency class's percentiles — virtual microseconds, so
// the numbers are machine-independent and byte-reproducible.
func virtualTimePercentiles() map[string]map[string]float64 {
	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(ipc.NetworkConfig{Name: "bench-local", BandwidthMbps: 1e6})
	link.SetFaultPlane(faultplane.New(faultplane.Chaos(1991)))
	remote := fsserver.NewRemoteOnLink(fs.New(256), cm, link)
	rec := obs.NewRecorder(link)
	remote.SetRecorder(rec)
	if _, err := fsserver.DefaultAndrewMini().Run(remote); err != nil {
		fmt.Fprintln(os.Stderr, "virtual-time soak failed:", err)
		os.Exit(1)
	}
	out := map[string]map[string]float64{}
	for _, class := range []string{"fsserver.op"} {
		h := rec.Histogram(class)
		out[class] = map[string]float64{"p50": h.P50(), "p99": h.P99()}
	}
	return out
}

// compareBench checks cur against the committed baseline: a benchmark
// more than benchTolerance slower in ns/op, or allocating more per op,
// is a regression. Benchmarks new since the baseline pass (the
// trajectory grows); benchmarks missing from cur fail (coverage must
// not silently shrink). Additionally, any "-traced" probe allocating
// more per op than its untraced sibling in the same run fails: tracing
// must be free on the hot path.
func compareBench(path string, cur benchFile) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline unreadable:", err)
		return false
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline undecodable:", err)
		return false
	}
	curBy := map[string]benchResult{}
	for _, r := range cur.Benchmarks {
		curBy[r.Name] = r
	}
	ok := true
	for _, b := range base.Benchmarks {
		c, found := curBy[b.Name]
		if !found {
			fmt.Printf("REGRESSION %-34s dropped from the measured set\n", b.Name)
			ok = false
			continue
		}
		switch {
		case c.AllocsPerOp > b.AllocsPerOp:
			fmt.Printf("REGRESSION %-34s allocs/op %d -> %d (any increase fails)\n",
				b.Name, b.AllocsPerOp, c.AllocsPerOp)
			ok = false
		case b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*benchTolerance:
			fmt.Printf("REGRESSION %-34s ns/op %.0f -> %.0f (>%.0f%% over baseline)\n",
				b.Name, b.NsPerOp, c.NsPerOp, 100*(benchTolerance-1))
			ok = false
		default:
			fmt.Printf("ok         %-34s ns/op %.0f -> %.0f, allocs/op %d -> %d\n",
				b.Name, b.NsPerOp, c.NsPerOp, b.AllocsPerOp, c.AllocsPerOp)
		}
	}
	// Same-run rule, independent of the baseline: a traced probe paying
	// allocations its untraced sibling doesn't is an instrumentation
	// regression even if the baseline hasn't caught up yet.
	for _, c := range cur.Benchmarks {
		sibling, isTraced := strings.CutSuffix(c.Name, "-traced")
		if !isTraced {
			continue
		}
		s, found := curBy[sibling]
		if !found {
			continue
		}
		if c.AllocsPerOp > s.AllocsPerOp {
			fmt.Printf("REGRESSION %-34s allocs/op %d vs %s's %d (tracing must be free)\n",
				c.Name, c.AllocsPerOp, sibling, s.AllocsPerOp)
			ok = false
		} else {
			fmt.Printf("ok         %-34s allocs/op %d matches %s (tracing is free)\n",
				c.Name, c.AllocsPerOp, sibling)
		}
	}
	if ok {
		fmt.Println("benchmark trajectory holds: no ns/op or allocs/op regression against", path)
	}
	return ok
}
