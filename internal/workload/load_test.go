package workload

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"archos/internal/arch"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
)

// tailWindows sums a metric over the curve windows in [from, to).
func tailWindows(res *LoadResult, from, to float64, f func(LoadPoint) int) int {
	sum := 0
	for _, p := range res.Curve {
		if p.TMicros >= from && p.TMicros < to {
			sum += f(p)
		}
	}
	return sum
}

// TestOverloadCollapseAndRecovery is the headline soak: the same
// seeded open-loop load — a 4× burst through the middle of the run —
// against the undefended and the defended service. Undefended, the
// burst tips the service into metastable collapse: it executes work
// whose callers have given up, their re-issues keep the queue past the
// deadline horizon, and goodput stays near zero long after the burst
// has ended. Defended, expired work is shed at ~zero cost, goodput
// tracks capacity through the burst, and the service recovers to
// baseline when the burst passes.
func TestOverloadCollapseAndRecovery(t *testing.T) {
	cfg := DefaultLoadConfig()

	cfg.Controls = ControlsOff()
	off, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controls = ControlsOn()
	on, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The two runs face the same offered load, drawn from a dedicated
	// arrival PRNG stream.
	if off.Offered != on.Offered {
		t.Fatalf("offered load differs across control settings: %d vs %d", off.Offered, on.Offered)
	}
	t.Logf("off: %+v", summarize(off))
	t.Logf("on:  %+v", summarize(on))
	for i := range off.Curve {
		p := off.Curve[i]
		t.Logf("off win %4.1fs offered=%4d done=%4d good=%4d failed=%4d shed=%4d p99=%6.0f",
			p.TMicros/1e6, p.Offered, p.Done, p.Goodput, p.Failed, p.Shed, p.P99Micros)
	}
	for i := range on.Curve {
		p := on.Curve[i]
		t.Logf("on  win %4.1fs offered=%4d done=%4d good=%4d failed=%4d shed=%4d p99=%6.0f",
			p.TMicros/1e6, p.Offered, p.Done, p.Goodput, p.Failed, p.Shed, p.P99Micros)
	}

	// Tail of the run: burst long over, arrivals back under capacity.
	tail0, tail1 := 1_500_000.0, 2_000_000.0
	offTailGood := tailWindows(off, tail0, tail1, func(p LoadPoint) int { return p.Goodput })
	offTailOffered := tailWindows(off, tail0, tail1, func(p LoadPoint) int { return p.Offered })
	onTailGood := tailWindows(on, tail0, tail1, func(p LoadPoint) int { return p.Goodput })

	// Undefended: metastable — goodput stays collapsed post-burst.
	if offTailOffered == 0 {
		t.Fatal("no offered load in the tail; config broken")
	}
	if lim := offTailOffered / 10; offTailGood > lim {
		t.Errorf("undefended tail goodput = %d of %d offered; expected collapse (< %d)",
			offTailGood, offTailOffered, lim)
	}
	// Defended: recovered — tail goodput back to a healthy fraction of
	// the same offered load.
	if lim := (offTailOffered * 8) / 10; onTailGood < lim {
		t.Errorf("defended tail goodput = %d of %d offered; expected recovery (> %d)",
			onTailGood, offTailOffered, lim)
	}

	// The defences actually fired, and only on the defended run.
	if off.ServerStats.ShedExpired != 0 || off.Rejected != 0 {
		t.Errorf("undefended run shed work: %d expired, %d rejected ops",
			off.ServerStats.ShedExpired, off.Rejected)
	}
	if on.ServerStats.ShedExpired == 0 || on.Rejected == 0 {
		t.Errorf("defended run never shed: stats %+v, rejected %d", on.ServerStats, on.Rejected)
	}
	// Undefended the server burns capacity executing everything ever
	// sent; defended it executes strictly less.
	if on.ServerStats.Served >= off.ServerStats.Served {
		t.Errorf("defended server executed %d ops, undefended %d; shedding saved nothing",
			on.ServerStats.Served, off.ServerStats.Served)
	}
}

type soakSummary struct {
	Offered, Reissues, Executed, Goodput, Failed, Rejected, Timeouts, Dropped int
	Sessions, Served                                                          int
}

func summarize(r *LoadResult) soakSummary {
	return soakSummary{
		Offered: r.Offered, Reissues: r.Reissues, Executed: r.Executed,
		Goodput: r.Goodput, Failed: r.Failed, Rejected: r.Rejected,
		Timeouts: r.Timeouts, Dropped: r.ClientDropped,
		Sessions: r.SessionsTouched, Served: r.ServerStats.Served,
	}
}

// TestLoadRunIsDeterministic: same config, byte-identical result —
// curve, stats, fingerprint, accepted set, final clock.
func TestLoadRunIsDeterministic(t *testing.T) {
	for _, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
		cfg := DefaultLoadConfig()
		cfg.DurationMicros = 1_000_000
		cfg.Controls = controls
		a, err := RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("controls %+v: same seed produced different results", controls)
		}
	}
}

// TestLoadAcceptedMatchesMonolithic: whatever the overload plane did —
// shed, reject, deny retries — the set of mutations the service
// accepted replays on a fresh monolithic arrangement to the identical
// file-system fingerprint. Refusing work must never corrupt accepted
// work, under either control setting.
func TestLoadAcceptedMatchesMonolithic(t *testing.T) {
	cm := kernel.NewCostModel(arch.R3000)
	for _, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
		cfg := DefaultLoadConfig()
		cfg.DurationMicros = 1_200_000
		cfg.Controls = controls
		res, err := RunLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clean := fs.New(cfg.CacheBlocks)
		direct := fsserver.NewDirect(clean, cm)
		if err := res.ReplayAccepted(direct.Mkdir); err != nil {
			t.Fatalf("controls %+v: %v", controls, err)
		}
		if got := clean.Fingerprint(); got != res.Fingerprint {
			t.Errorf("controls %+v: accepted-op replay diverged from the service's state", controls)
		}
	}
}

// TestLoadMillionSessions: the generator carries a million-session
// identity space without breaking a sweat — and the arrival process
// actually spreads across it.
func TestLoadMillionSessions(t *testing.T) {
	cfg := DefaultLoadConfig()
	cfg.Sessions = 1_000_000
	cfg.DurationMicros = 1_000_000
	cfg.Controls = ControlsOn()
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionsTouched < 500 {
		t.Errorf("only %d sessions activated", res.SessionsTouched)
	}
	if res.Offered == 0 || res.Executed == 0 {
		t.Errorf("run did nothing: %+v", summarize(res))
	}
}

// refHeap drives container/heap over the run's event order: the
// reference the typed eventHeap replaced.
type refHeap []levent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(levent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEventHeapMatchesContainerHeap: a seeded stream of pushes and
// pops, with times drawn from a handful of values so most events tie
// on t, pops the same sequence from the typed heap as from
// container/heap. The heap alternates growing and shrinking phases so
// both sifts run at every depth.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	var got eventHeap
	var want refHeap
	seq := 0
	for step := 0; step < 40_000; step++ {
		pushOdds := 3 // of 4, while growing
		if step/2000%2 == 1 {
			pushOdds = 1
		}
		if len(want) == 0 || rng.Intn(4) < pushOdds {
			e := levent{t: float64(rng.Intn(8)), seq: seq, kind: uint8(rng.Intn(5)), gen: rng.Intn(3)}
			seq++
			got.push(e)
			heap.Push(&want, e)
			continue
		}
		if g, w := got.pop(), heap.Pop(&want).(levent); g != w {
			t.Fatalf("step %d: typed heap popped %+v, container/heap %+v", step, g, w)
		}
	}
	for len(want) > 0 {
		if g, w := got.pop(), heap.Pop(&want).(levent); g != w {
			t.Fatalf("drain: typed heap popped %+v, container/heap %+v", g, w)
		}
	}
	if len(got) != 0 {
		t.Fatalf("typed heap holds %d events after the reference drained", len(got))
	}
}

// TestRunLoadAllocationsPerOfferedOp bounds the load engine's host
// allocations per offered op. The event heap, the flight records, the
// interned paths, the op slab, the call frames sealed at serve time and
// the recycled reply frames allocate nothing per event, and the server
// answers a name collision or a missed Stat without building its
// error; what is left is the service's own work, each Mkdir's logged
// path and new directory, and the run's set-up. Measured at 0.75
// undefended and 0.53 defended.
func TestRunLoadAllocationsPerOfferedOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const bound = 1.0
	for _, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
		cfg := DefaultLoadConfig()
		cfg.DurationMicros = 1_000_000
		cfg.Controls = controls
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunLoad(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.Offered)
		t.Logf("controls %+v: %.2f allocations per offered op (%d offered)", controls, per, res.Offered)
		if per > bound {
			t.Errorf("controls %+v: %.2f allocations per offered op, want at most %.1f", controls, per, bound)
		}
	}
}

// TestInternPathsAllocatesPerRunNotPerRank: the path table names every
// rank as fmt's "/z%05d" did, past five digits too, with each payload
// the name's wire encoding, and a table of up to 100,000 ranks costs
// three allocations: the table, the names and the payload arena.
func TestInternPathsAllocatesPerRunNotPerRank(t *testing.T) {
	paths := internPaths(100_002)
	for _, z := range []int{0, 7, 42, 999, 4095, 9999, 10_000, 99_999, 100_000, 100_001} {
		want := fmt.Sprintf("/z%05d", z)
		if p := paths[z]; p.name != want || !bytes.Equal(p.payload, wire.AppendString(nil, want)) {
			t.Errorf("rank %d interned as %q, payload %q; want %q", z, p.name, p.payload, want)
		}
	}
	if raceEnabled {
		return // allocation counts are inflated under the race detector
	}
	if got := testing.AllocsPerRun(20, func() { internPaths(4096) }); got != 3 {
		t.Errorf("internPaths(4096) allocates %.0f times, want 3", got)
	}
}

// BenchmarkRunLoadPair times one overload-soak pair, the default
// configuration undefended and then defended, as hostbench's
// overload-soak workload runs it. allocs/op and B/op are per pair;
// offered/op is the pair's offered ops, and allocs/offered the
// allocations per offered op over the whole loop.
func BenchmarkRunLoadPair(b *testing.B) {
	b.ReportAllocs()
	offered, total := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		offered = 0
		for _, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
			cfg := DefaultLoadConfig()
			cfg.Controls = controls
			res, err := RunLoad(cfg)
			if err != nil {
				b.Fatal(err)
			}
			offered += res.Offered
		}
		total += offered
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(offered), "offered/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(total), "allocs/offered")
}

// TestLoadConfigValidate: RunLoad refuses, with an error naming the
// field, every config whose arrival process or timers it cannot run.
// Before the check, a negative BurstFactor never returned (each
// activation inside the burst scheduled the next one earlier), a zero
// one ended the arrivals at +Inf, a NaN rate passed the <= 0 test, a
// zero BurstCap offered nothing, and a negative gap or delay scheduled
// arrivals before the clock. The configs the tools run must still pass.
func TestLoadConfigValidate(t *testing.T) {
	for _, controls := range []LoadControls{ControlsOff(), ControlsOn()} {
		cfg := DefaultLoadConfig()
		cfg.Controls = controls
		if err := cfg.Validate(); err != nil {
			t.Errorf("default config with controls %+v refused: %v", controls, err)
		}
	}
	for _, tc := range []struct {
		field string
		set   func(*LoadConfig)
	}{
		{"BurstFactor", func(c *LoadConfig) { c.BurstFactor = -1 }},
		{"BurstFactor", func(c *LoadConfig) { c.BurstFactor = 0 }},
		{"DiurnalAmp", func(c *LoadConfig) { c.DiurnalAmp = -1 }},
		{"BurstCap", func(c *LoadConfig) { c.BurstCap = 0 }},
		{"IntraGap", func(c *LoadConfig) { c.IntraGap = -1 }},
		{"ReissueDelay", func(c *LoadConfig) { c.ReissueDelay = -1 }},
		{"TransportRetries", func(c *LoadConfig) { c.TransportRetries = -1 }},
		{"ReissueMax", func(c *LoadConfig) { c.ReissueMax = -1 }},
		{"WriteFraction", func(c *LoadConfig) { c.WriteFraction = -0.1 }},
		{"WriteFraction", func(c *LoadConfig) { c.WriteFraction = 1.1 }},
		{"BaseRate", func(c *LoadConfig) { c.BaseRate = math.NaN() }},
		{"BaseRate", func(c *LoadConfig) { c.BaseRate = math.Inf(1) }},
		{"DurationMicros", func(c *LoadConfig) { c.DurationMicros = math.Inf(1) }},
		{"BurstStart", func(c *LoadConfig) { c.BurstStart = math.NaN() }},
		{"DeadlineMicros", func(c *LoadConfig) { c.DeadlineMicros = math.NaN() }},
		{"IntraGap", func(c *LoadConfig) { c.IntraGap = math.Inf(1) }},
	} {
		cfg := DefaultLoadConfig()
		cfg.DurationMicros = 200_000
		tc.set(&cfg)
		_, err := RunLoad(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: RunLoad returned %v, want an error naming the field", tc.field, err)
		}
	}
}
