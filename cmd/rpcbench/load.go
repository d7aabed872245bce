package main

import (
	"encoding/json"
	"fmt"
	"os"

	"archos/internal/arch"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/kernel"
	"archos/internal/obs"
	"archos/internal/trace"
	"archos/internal/workload"
)

// The overload soak: `rpcbench -load` drives the open-loop load
// generator through the same seeded burst twice — once with every
// overload control disarmed, once with the full defence plane — and
// reports the two throughput-vs-p99 curves side by side. The committed
// BENCH_load.json holds both runs; everything in it is virtual-time, so
// regeneration is byte-identical for the same seed and -loadcompare can
// hold the defended goodput-under-overload to a ±20% trajectory.

// loadTolerance is how much defended goodput-under-overload may drop
// against the committed baseline before -loadcompare calls it a
// regression.
const loadTolerance = 0.80

type loadFile struct {
	Note string `json:"note"`
	// Config is the shared run shape; Undefended ran it with
	// ControlsOff, Defended with ControlsOn.
	Config     workload.LoadConfig  `json:"config"`
	Undefended *workload.LoadResult `json:"undefended"`
	Defended   *workload.LoadResult `json:"defended"`
}

// runLoad executes the paired soak, checks that each run's accepted
// set replays to its fingerprint (exiting nonzero, before any output,
// when one does not), prints the curves, the flight recorder's anomaly
// log, and the per-run critical-path attribution, writes
// loadout/flightdump if given, and compares against loadcompare if
// given (exiting nonzero on regression).
func runLoad(seed int64, loadout, loadcompare, flightdump string) {
	cfg := workload.DefaultLoadConfig()
	cfg.Seed = seed

	cfg.Controls = workload.ControlsOff()
	off, err := workload.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "undefended load run failed:", err)
		os.Exit(1)
	}
	cfg.Controls = workload.ControlsOn()
	on, err := workload.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "defended load run failed:", err)
		os.Exit(1)
	}
	cfg.Controls = workload.ControlsOff()
	for _, r := range []struct {
		name string
		res  *workload.LoadResult
	}{{"undefended", off}, {"defended", on}} {
		if err := checkReplay(r.res, cfg.CacheBlocks); err != nil {
			fmt.Fprintf(os.Stderr, "%s load run: %v\n", r.name, err)
			os.Exit(1)
		}
	}
	cur := loadFile{
		Note:       "Overload soak trajectory; regenerate with `make bench-load` (rpcbench -load -loadout BENCH_load.json)",
		Config:     cfg,
		Undefended: off,
		Defended:   on,
	}

	fmt.Printf("Overload soak: open-loop burst against the decomposed file service (seed %d)\n", seed)
	fmt.Printf("capacity %.0f ops/s, base %.0f ops/s, %gx burst %.1f–%.1f s, deadline %.0f ms, %d sessions\n",
		off.CapacityPerSec, cfg.BaseRate, cfg.BurstFactor,
		cfg.BurstStart/1e6, cfg.BurstEnd/1e6, cfg.DeadlineMicros/1e3, cfg.Sessions)

	t := trace.NewTable("Throughput vs p99 per 100 ms window (virtual time; goodput = replies within deadline)",
		"t(s)", "offered", "off good", "off p99 µs", "on good", "on p99 µs", "on shed")
	for i := range off.Curve {
		p := off.Curve[i]
		var q workload.LoadPoint
		if i < len(on.Curve) {
			q = on.Curve[i]
		}
		t.AddRow(fmt.Sprintf("%.1f", p.TMicros/1e6),
			fmt.Sprintf("%d", p.Offered),
			fmt.Sprintf("%d", p.Goodput), fmt.Sprintf("%.0f", p.P99Micros),
			fmt.Sprintf("%d", q.Goodput), fmt.Sprintf("%.0f", q.P99Micros),
			fmt.Sprintf("%d", q.Shed))
	}
	fmt.Println(t)

	s := trace.NewTable("Run accounting", "Metric", "undefended", "defended")
	add := func(name string, a, b interface{}) {
		s.AddRow(name, fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
	}
	add("offered ops", off.Offered, on.Offered)
	add("goodput (in-deadline replies)", off.Goodput, on.Goodput)
	add("goodput under overload", overloadGoodput(off, cfg), overloadGoodput(on, cfg))
	add("executed ops", off.Executed, on.Executed)
	add("server ops run", off.ServerStats.Served, on.ServerStats.Served)
	add("shed expired (server)", off.ServerStats.ShedExpired, on.ServerStats.ShedExpired)
	add("ops failed by reject", off.Rejected, on.Rejected)
	add("client timeouts", off.Timeouts, on.Timeouts)
	add("re-issues (fresh deadline+ID)", off.Reissues, on.Reissues)
	add("retransmits", off.Retransmits, on.Retransmits)
	add("retransmits denied by budget", off.BudgetDenied, on.BudgetDenied)
	add("no-connection drops", off.ClientDropped, on.ClientDropped)
	add("sessions touched", off.SessionsTouched, on.SessionsTouched)
	add("accepted mkdirs", len(off.AcceptedMkdirs), len(on.AcceptedMkdirs))
	fmt.Println(s)

	// The always-on flight recorder: what tripped, when, and — from the
	// ring snapshotted at the first trigger — where each completed op's
	// virtual time went in the lead-up. The two tables diff directly:
	// the undefended run's time pools in queue-wait and reply-wait, the
	// defended run's in service and (cheap) sheds.
	printAnomalies("undefended", off)
	printAnomalies("defended", on)
	fmt.Println(critpathTable("undefended", off))
	fmt.Println(critpathTable("defended", on))

	fmt.Printf("fingerprints: undefended %s, defended %s (each replays from its accepted set)\n",
		off.Fingerprint[:12], on.Fingerprint[:12])
	fmt.Printf("virtual time %.0f µs (bit-for-bit reproducible for seed %d)\n", on.ClockMicros, seed)

	if flightdump != "" {
		for _, d := range []struct {
			name string
			res  *workload.LoadResult
		}{{"undefended", off}, {"defended", on}} {
			path := fmt.Sprintf("%s-%s.jsonl", flightdump, d.name)
			if err := writeFlightDump(path, flightEvents(d.res)); err != nil {
				fmt.Fprintln(os.Stderr, "flight dump failed:", err)
				os.Exit(1)
			}
			fmt.Printf("flight dump (%s) written to %s\n", d.name, path)
		}
	}

	if loadout != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "load encode failed:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(loadout, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "load write failed:", err)
			os.Exit(1)
		}
		fmt.Printf("load trajectory written to %s\n", loadout)
	}
	if loadcompare != "" {
		if !compareLoad(loadcompare, cur) {
			os.Exit(1)
		}
	}
}

// checkReplay replays a run's accepted mutations on a fresh monolithic
// file system of the run's size and reports why the replay fails to
// reproduce the run's fingerprint, or nil when it does: the overload
// plane may refuse work, but everything it accepted took effect
// exactly once.
func checkReplay(res *workload.LoadResult, cacheBlocks int) error {
	clean := fs.New(cacheBlocks)
	if err := res.ReplayAccepted(fsserver.NewDirect(clean, kernel.NewCostModel(arch.R3000)).Mkdir); err != nil {
		return err
	}
	if got := clean.Fingerprint(); got != res.Fingerprint {
		return fmt.Errorf("replay of %d accepted mkdirs reaches fingerprint %s, the run ended at %s",
			len(res.AcceptedMkdirs), got, res.Fingerprint)
	}
	return nil
}

// printAnomalies lists a run's flight-recorder incident log: each
// trigger onset with the vital signs of the window that tripped it.
func printAnomalies(name string, res *workload.LoadResult) {
	if len(res.Anomalies) == 0 {
		fmt.Printf("anomalies (%s): none\n", name)
		return
	}
	for _, a := range res.Anomalies {
		fmt.Printf("anomaly (%s): %s at t=%.1fs (window %d: offered %d, goodput %d, shed %d)\n",
			name, a.Kind, a.TMicros/1e6, a.Window, a.Offered, a.Goodput, a.Shed)
	}
	fmt.Printf("flight ring (%s): %d events retained, %d overwritten; dump snapshotted at first trigger\n",
		name, res.TraceRetained, res.TraceDropped)
}

// flightEvents picks the postmortem evidence for a run: the ring as of
// the first anomaly when one fired (the lead-up to the incident), the
// end-of-run tail otherwise.
func flightEvents(res *workload.LoadResult) []obs.Event {
	if res.AnomalyDump != nil {
		return res.AnomalyDump
	}
	return res.TraceTail
}

// critpathTable folds a run's flight evidence into the per-layer cost
// attribution of its completed ops.
func critpathTable(name string, res *workload.LoadResult) *trace.Table {
	cp := obs.CriticalPath(flightEvents(res), nil)
	return cp.Table(fmt.Sprintf("Critical path (%s): %d completed ops in the flight window, %d incomplete",
		name, cp.Ops, cp.Skipped))
}

// writeFlightDump writes the evidence as JSONL, one event per line —
// the byte-reproducible artifact the CI determinism step compares.
func writeFlightDump(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overloadGoodput sums goodput over the overload regime: every window
// from burst onset to the end of the run — the burst itself plus the
// recovery tail, exactly where the defences earn their keep.
func overloadGoodput(res *workload.LoadResult, cfg workload.LoadConfig) int {
	sum := 0
	for _, p := range res.Curve {
		if p.TMicros >= cfg.BurstStart {
			sum += p.Goodput
		}
	}
	return sum
}

// compareLoad checks cur against the committed baseline: the defended
// run keeping less than loadTolerance of the baseline's goodput under
// overload is a regression, as is the undefended run losing its
// collapse (the soak would no longer demonstrate anything). Offered
// load drifting means the config changed: regenerate the baseline.
func compareLoad(path string, cur loadFile) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "load baseline unreadable:", err)
		return false
	}
	var base loadFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "load baseline undecodable:", err)
		return false
	}
	ok := true
	if base.Undefended == nil || base.Defended == nil {
		fmt.Println("REGRESSION load baseline is missing a run; regenerate with `make bench-load`")
		return false
	}
	if cur.Defended.Offered != base.Defended.Offered {
		fmt.Printf("REGRESSION offered load %d -> %d: config drifted from the baseline; regenerate with `make bench-load`\n",
			base.Defended.Offered, cur.Defended.Offered)
		ok = false
	}
	bg, cg := overloadGoodput(base.Defended, base.Config), overloadGoodput(cur.Defended, cur.Config)
	if float64(cg) < float64(bg)*loadTolerance {
		fmt.Printf("REGRESSION defended goodput under overload %d -> %d (kept <%.0f%% of baseline)\n",
			bg, cg, 100*loadTolerance)
		ok = false
	} else {
		fmt.Printf("ok         defended goodput under overload %d -> %d\n", bg, cg)
	}
	bc, cc := overloadGoodput(cur.Undefended, cur.Config), overloadGoodput(cur.Defended, cur.Config)
	if bc*2 >= cc {
		fmt.Printf("REGRESSION undefended goodput under overload %d vs defended %d: the collapse-vs-recovery gap closed\n",
			bc, cc)
		ok = false
	} else {
		fmt.Printf("ok         undefended %d vs defended %d goodput under overload (collapse intact)\n", bc, cc)
	}
	if ok {
		fmt.Println("load trajectory holds: goodput under overload within tolerance of", path)
	}
	return ok
}
