// Command osprof profiles the decomposed file service on the virtual
// clock: it replays the andrew-mini script through the wire transport
// with the observability recorder attached and prints where the
// virtual time went, layer by layer — the per-op decomposition the
// paper's Table 7 sums into one multiplier.
//
// Usage:
//
//	osprof                   # fault-free profile
//	osprof -chaos -seed 7    # profile under the reference fault policy
//	osprof -critpath         # critical-path attribution of a replicated
//	                         # chaos+crash soak: per-layer cost table
//	osprof -trace out.json   # also export a Chrome trace_event file
//	osprof -jsonl out.jsonl  # also export the raw event stream
//	osprof -allocs           # also report host-side heap allocs/op
//	                         # (machine-local, not deterministic)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"archos/internal/arch"
	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/obs"
	"archos/internal/trace"
)

func main() {
	chaos := flag.Bool("chaos", false, "run the profile under the reference chaos fault policy")
	seed := flag.Int64("seed", 1991, "fault-plane seed for -chaos and -critpath")
	critpath := flag.Bool("critpath", false, "critical-path attribution of a replicated chaos+crash soak")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the run")
	jsonlOut := flag.String("jsonl", "", "write the run's event stream as JSONL")
	allocs := flag.Bool("allocs", false, "also report host-side Go heap allocation for the run (machine-local; excluded from the deterministic default output)")
	flag.Parse()

	if *critpath {
		out, err := critpathReport(*seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "critpath run failed:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	out, rec, err := profileReport(*chaos, *seed, *allocs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile run failed:", err)
		os.Exit(1)
	}
	fmt.Print(out)
	if *traceOut != "" {
		if err := obs.ExportChromeFile(*traceOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "trace export failed:", err)
		} else {
			fmt.Printf("chrome trace written to %s\n", *traceOut)
		}
	}
	if *jsonlOut != "" {
		if err := obs.ExportJSONLFile(*jsonlOut, rec); err != nil {
			fmt.Fprintln(os.Stderr, "jsonl export failed:", err)
		} else {
			fmt.Printf("jsonl events written to %s\n", *jsonlOut)
		}
	}
}

// profileReport replays the andrew-mini script over a single-server
// decomposed file service with a recorder attached — under the
// reference chaos policy at seed when chaos is set — and renders the
// default report: the virtual-time breakdown by layer, the latency
// table and the metrics snapshot. Everything runs on the virtual
// clock, so the report is byte-reproducible per seed. With allocs set
// it also carries the host heap allocation table, which is
// machine-local. The recorder is returned for the trace exports.
func profileReport(chaos bool, seed int64, allocs bool) (string, *obs.Recorder, error) {
	var meter *obs.AllocMeter
	if allocs {
		meter = obs.NewAllocMeter()
	}

	cm := kernel.NewCostModel(arch.R3000)
	link := wire.NewLink(ipc.NetworkConfig{Name: "prof-local", BandwidthMbps: 1e6})
	var plane *faultplane.Plane
	if chaos {
		plane = faultplane.New(faultplane.Chaos(seed))
		link.SetFaultPlane(plane)
	}
	remote := fsserver.NewRemoteOnLink(fs.New(256), cm, link)
	rec := obs.NewRecorder(link)
	remote.SetRecorder(rec)

	if meter != nil {
		meter.Reset() // measure the replay, not the setup above
	}
	ops, err := fsserver.DefaultAndrewMini().Run(remote)
	if err != nil {
		return "", nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "osprof: andrew-mini, %d ops over the decomposed file service (R3000)", ops)
	if chaos {
		fmt.Fprintf(&b, ", chaos seed %d", seed)
	}
	fmt.Fprintf(&b, "\n\n")

	fmt.Fprintln(&b, breakdownTable(cm, remote.Stats(), plane))
	fmt.Fprintln(&b, obs.LatencyTable(rec, "Latency distribution (virtual µs)"))

	snap := obs.Snapshot{}
	remote.Stats().Metrics("fsserver.", snap)
	rec.Histogram("call.roundtrip").Metrics("rpc.", snap)
	if plane != nil {
		plane.Counts().Metrics("fault.", snap)
	}
	fmt.Fprintln(&b, snap.Table("Metrics registry snapshot"))

	if meter != nil {
		alloc := obs.Snapshot{}
		meter.Metrics(ops, "goheap.", alloc)
		fmt.Fprintln(&b, alloc.Table("Host allocation (real heap, machine-local)"))
	}

	fmt.Fprintf(&b, "virtual time %.0f µs, %d trace events\n", link.Clock(), rec.EventCount())
	return b.String(), rec, nil
}

// critpathReport runs the andrew-mini script against a replicated
// cluster under chaos and a kill-forever crash schedule — the
// hardest-weather arrangement the repo has — and folds every completed
// RPC's span into the per-layer critical-path table: where each op's
// virtual time went, segment by segment, with per-segment percentiles.
// Everything is on the shared virtual clock, so the report is
// byte-reproducible per seed (the golden test and the CI cmp step both
// lean on this). Replication-infrastructure procs are excluded from
// the fold; their cost appears inside the ops that waited on them, as
// the repl-stall segment.
func critpathReport(seed int64, backups int) (string, error) {
	cm := kernel.NewCostModel(arch.R3000)
	cfg := fsserver.DefaultReplicaConfig()
	cfg.Backups = backups
	cluster := fsserver.NewCluster(256, cm, cfg)
	// A per-op service charge makes handler execution cost virtual time
	// (as in the load soaks), so the service segment is a real quantity
	// rather than the cost model's free handler.
	cluster.SetServiceCharge(50)
	cluster.PrimaryLink().SetFaultPlane(faultplane.New(faultplane.Chaos(seed)))
	cluster.SetCrashPlane(faultplane.NewCrash(faultplane.ChaosKill(seed), nil))
	remote := cluster.NewClient()
	rec := obs.NewRecorder(cluster.Clock())
	remote.SetRecorder(rec)

	ops, err := fsserver.DefaultAndrewMini().Run(remote)
	if err != nil {
		return "", err
	}

	cp := obs.CriticalPath(rec.Events(), func(proc uint32) bool {
		return proc < fsserver.ProcShip
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Critical-path attribution: andrew-mini over the replicated file service (seed %d, %d backup(s))\n",
		seed, backups)
	fmt.Fprintf(&b, "service ops: %d; spans folded: %d, incomplete: %d\n\n", ops, cp.Ops, cp.Skipped)
	fmt.Fprintln(&b, cp.Table("Where each completed op's virtual time went"))
	fmt.Fprintf(&b, "virtual time %.0f µs, %d trace events (bit-for-bit reproducible for seed %d)\n",
		cluster.Clock().Clock(), rec.EventCount(), seed)
	return b.String(), nil
}

// breakdownTable splits the run's virtual time across the layers the
// decomposition introduced. Syscall and address-space charges follow
// from the paper's per-RPC accounting (two of each per call); the wire
// row is transmission proper — transport time minus the client's
// backoff waits and the fault plane's injected delay.
func breakdownTable(cm *kernel.CostModel, st fsserver.Stats, plane *faultplane.Plane) *trace.Table {
	syscall := float64(st.Syscalls) * cm.SyscallMicros()
	asSwitch := float64(st.ASSwitches) * cm.AddressSpaceSwitchMicros()
	var delay float64
	if plane != nil {
		delay = plane.Counts().DelayMicros
	}
	transmit := st.WireMicros - st.Wire.BackoffMicros - delay
	total := st.VirtualMicros

	t := trace.NewTable("Virtual-time breakdown by layer",
		"Layer", "Virtual µs", "Share")
	row := func(name string, v float64) {
		t.AddRow(name, fmt.Sprintf("%.0f", v), fmt.Sprintf("%.1f%%", 100*v/total))
	}
	row("system calls (2/op)", syscall)
	row("address-space switches (2/op)", asSwitch)
	row("wire transmission", transmit)
	row("retransmit backoff", st.Wire.BackoffMicros)
	row("injected fault delay", delay)
	t.AddRow("total", fmt.Sprintf("%.0f", total), "100.0%")
	return t
}
