// Command machbench regenerates the paper's Table 7: the reliance of
// seven application workloads on operating-system primitives under the
// monolithic Mach 2.5 structure and the decomposed (microkernel) Mach
// 3.0 structure, on the simulated DECstation 5000/200.
//
// Usage:
//
//	machbench              # both halves of Table 7
//	machbench -conclusions # also print the paper's quantified claims
//	machbench -functional  # run the real file service under both structures
//	machbench -metrics     # metrics snapshots + structure diff for andrew-remote
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"archos/internal/arch"
	"archos/internal/core"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/kernel"
	"archos/internal/mach"
	"archos/internal/obs"
	"archos/internal/trace"
	"archos/internal/workload"
)

func main() {
	conclusions := flag.Bool("conclusions", false, "print the quantified Section 5 claims")
	functional := flag.Bool("functional", false, "replay the andrew-mini script through the functional file service")
	metrics := flag.Bool("metrics", false, "print metrics snapshots and the structure diff")
	flag.Parse()

	fmt.Println(core.Table7(mach.Monolithic))
	fmt.Println(core.Table7(mach.Microkernel))

	if *conclusions {
		printConclusions()
	}
	if *functional {
		printFunctional()
	}
	if *metrics {
		fmt.Print(metricsReport())
	}
}

// metricsReport renders the -metrics report from metrics snapshots:
// each simulated OS writes its counters into one snapshot per
// structure, and the Snapshot.Diff shows exactly what decomposition
// cost — the Table 7 story restated as a metric diff. Everything is
// simulated, so the text is deterministic.
func metricsReport() string {
	mono := mach.New(mach.DefaultConfig(mach.Monolithic))
	micro := mach.New(mach.DefaultConfig(mach.Microkernel))
	mono.Run(workload.AndrewRemote)
	micro.Run(workload.AndrewRemote)

	before, after := obs.Snapshot{}, obs.Snapshot{}
	mono.Metrics("os.", before)
	micro.Metrics("os.", after)
	var b strings.Builder
	fmt.Fprintln(&b, before.Table("andrew-remote, monolithic structure (Mach 2.5)"))
	fmt.Fprintln(&b, after.Table("andrew-remote, decomposed structure (Mach 3.0)"))
	fmt.Fprintln(&b, after.Diff(before).Table("decomposition cost (Mach 3.0 − Mach 2.5)"))

	// The functional file service reports the same way: its Stats
	// writes one row per counter field.
	remote := fsserver.NewRemote(fs.New(256), kernel.NewCostModel(arch.R3000))
	if _, err := fsserver.DefaultAndrewMini().Run(remote); err != nil {
		log.Fatal(err)
	}
	fsnap := obs.Snapshot{}
	remote.Stats().Metrics("fsserver.", fsnap)
	fmt.Fprintln(&b, fsnap.Table("functional file service, decomposed (R3000)"))
	return b.String()
}

// printFunctional runs real file operations (internal/fs) under both
// structures via internal/fsserver, per architecture.
func printFunctional() {
	script := fsserver.DefaultAndrewMini()
	t := trace.NewTable("Functional check: andrew-mini through the real file service (identical operations, different structure)",
		"Architecture", "Ops", "Mono syscalls", "Micro syscalls", "Mono prim ms", "Micro prim ms", "Factor")
	for _, s := range []*arch.Spec{arch.R3000, arch.R2000, arch.SPARC, arch.CVAX} {
		cm := kernel.NewCostModel(s)
		direct := fsserver.NewDirect(fs.New(256), cm)
		remote := fsserver.NewRemote(fs.New(256), cm)
		if _, err := script.Run(direct); err != nil {
			log.Fatal(err)
		}
		if _, err := script.Run(remote); err != nil {
			log.Fatal(err)
		}
		d, r := direct.Stats(), remote.Stats()
		t.AddRow(s.Name,
			fmt.Sprintf("%d", d.Ops),
			fmt.Sprintf("%d", d.Syscalls),
			fmt.Sprintf("%d", r.Syscalls),
			fmt.Sprintf("%.1f", d.VirtualMicros/1000),
			fmt.Sprintf("%.1f", r.VirtualMicros/1000),
			fmt.Sprintf("%.1fx", r.VirtualMicros/d.VirtualMicros))
	}
	fmt.Println(t)
}

func printConclusions() {
	mono := mach.New(mach.DefaultConfig(mach.Monolithic))
	micro := mach.New(mach.DefaultConfig(mach.Microkernel))

	ar := workload.AndrewRemote
	m25 := mono.Run(ar)
	m30 := micro.Run(ar)
	fmt.Printf("andrew-remote context-switch inflation (Mach 3.0 / 2.5): %.0fx (paper: \"a 33-fold increase\")\n",
		float64(m30.ASSwitches)/float64(m25.ASSwitches))
	fmt.Printf("andrew-remote kernel TLB miss inflation: %.0fx (paper: \"an order of magnitude\")\n",
		float64(m30.KTLBMisses)/float64(m25.KTLBMisses))
	fmt.Printf("andrew-remote time in primitives under Mach 3.0: %.1f s of %.1f s (paper: ~26 s of 150 s)\n",
		m30.PrimSeconds, m30.ElapsedSec)

	// "the combination of Tables 1 and 7 indicates that a SPARC would
	// spend 9.4 seconds just in the overhead for system calls and
	// context switches in executing the remote Andrew script on Mach 3.0."
	sparc := kernel.NewCostModel(arch.SPARC)
	sparcSecs := (float64(m30.Syscalls)*sparc.SyscallMicros() +
		float64(m30.ASSwitches)*sparc.ContextSwitchMicros()) / 1e6
	fmt.Printf("same counts priced on a SPARC (syscalls + context switches only): %.1f s (paper: 9.4 s)\n", sparcSecs)

	for _, w := range workload.All() {
		r := micro.Run(w)
		fmt.Printf("%-24s Mach 3.0 time in primitives: %4.1f%% (paper: \"between 15 and 20 percent\" for most)\n",
			w.Name, r.PctInPrims)
	}

	// Where the decomposed structure's primitive time lands: on the
	// R3000, the slow kernel-TLB-miss path dominates — §5's third
	// observation quantified.
	r := micro.Run(workload.AndrewRemote)
	fmt.Println("\nandrew-remote (Mach 3.0) primitive time by kind:")
	for k := mach.PrimKind(0); k < mach.NumPrimKinds; k++ {
		fmt.Printf("  %-24s %6.2f s (%4.1f%%)\n",
			k, r.PrimSecondsByKind[k], 100*r.PrimSecondsByKind[k]/r.PrimSeconds)
	}
}
