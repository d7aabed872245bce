// Command sweep runs the ablation studies in DESIGN.md: the design
// choices the paper identifies, swept through alternatives.
//
//	sweep -writebuffer   # A1: write-buffer depth & page mode vs trap time
//	sweep -tlb           # A2: tagged vs untagged TLB; LRPC purge cost
//	sweep -windows       # A3: register-window count vs switch cost
//	sweep -network       # A4: network bandwidth vs RPC wire share
//	sweep -decompose     # A5: degree of OS decomposition
//	sweep -archfix       # A6: the paper's proposed architecture fixes
//
// With no flags, every sweep runs.
package main

import (
	"flag"
	"fmt"

	"archos/internal/arch"
	"archos/internal/cache"
	"archos/internal/ipc"
	"archos/internal/kernel"
	"archos/internal/mach"
	"archos/internal/sim"
	"archos/internal/trace"
	"archos/internal/workload"
)

func main() {
	wb := flag.Bool("writebuffer", false, "write-buffer ablation")
	tlbF := flag.Bool("tlb", false, "TLB tagging ablation")
	win := flag.Bool("windows", false, "register-window ablation")
	netF := flag.Bool("network", false, "network bandwidth ablation")
	dec := flag.Bool("decompose", false, "decomposition-degree ablation")
	fix := flag.Bool("archfix", false, "architecture-fix variants")
	flag.Parse()
	all := !*wb && !*tlbF && !*win && !*netF && !*dec && !*fix

	if all || *wb {
		sweepWriteBuffer()
	}
	if all || *tlbF {
		sweepTLB()
	}
	if all || *win {
		sweepWindows()
	}
	if all || *netF {
		sweepNetwork()
	}
	if all || *dec {
		fmt.Println(sweepDecompose())
	}
	if all || *fix {
		sweepArchFixes()
	}
}

// sweepArchFixes prices the paper's proposed architecture improvements
// (§2.5, §3.3, §4.1 citations) as handler-program variants.
func sweepArchFixes() {
	t := trace.NewTable("A6: the paper's proposed architecture fixes, priced",
		"Proposal", "Stock", "With fix", "Saved")
	i860 := kernel.Measure(arch.I860, kernel.Trap)
	i860fix := kernel.VariantCost(arch.I860, kernel.I860WithFaultAddress(arch.I860))
	t.AddRow("i860: latch the fault address (§3.3)",
		fmt.Sprintf("%d instr / %.1f µs", i860.Instructions, i860.Micros),
		fmt.Sprintf("%d instr / %.1f µs", i860fix.Instructions, i860fix.Micros),
		fmt.Sprintf("%.0f%%", 100*(1-i860fix.Micros/i860.Micros)))

	m88 := kernel.Measure(arch.M88000, kernel.NullSyscall)
	m88fix := kernel.VariantCost(arch.M88000, kernel.M88000DeferredExceptionSyscall(arch.M88000))
	t.AddRow("88000: defer exceptions on voluntary traps (§2.5)",
		fmt.Sprintf("%d instr / %.1f µs", m88.Instructions, m88.Micros),
		fmt.Sprintf("%d instr / %.1f µs", m88fix.Instructions, m88fix.Micros),
		fmt.Sprintf("%.0f%%", 100*(1-m88fix.Micros/m88.Micros)))

	sp := kernel.Measure(arch.SPARC, kernel.ContextSwitch)
	spfix := kernel.VariantCost(arch.SPARC, kernel.SPARCWindowPerThreadSwitch(arch.SPARC))
	t.AddRow("SPARC: a register window per thread [Agarwal et al. 90]",
		fmt.Sprintf("%d instr / %.1f µs", sp.Instructions, sp.Micros),
		fmt.Sprintf("%d instr / %.1f µs", spfix.Instructions, spfix.Micros),
		fmt.Sprintf("%.0f%%", 100*(1-spfix.Micros/sp.Micros)))
	fmt.Println(t)
}

// sweepWriteBuffer re-times the R2000 trap handler under alternative
// write-buffer designs — the DS3100 vs DS5000 contrast of Section 2.3.
func sweepWriteBuffer() {
	t := trace.NewTable("A1: MIPS trap handler vs write-buffer design (16.67 MHz clock held fixed)",
		"Write buffer", "Trap µs", "WB-stall cycles", "Stall share")
	for _, cfg := range []struct {
		name string
		wb   cache.WriteBufferConfig
	}{
		{"none (stall every store)", cache.WriteBufferConfig{Depth: 0, DrainCycles: 5}},
		{"2-deep, 5-cycle drain", cache.WriteBufferConfig{Depth: 2, DrainCycles: 5}},
		{"4-deep, 5-cycle drain (DS3100)", cache.WriteBufferConfig{Depth: 4, DrainCycles: 5}},
		{"6-deep, 5-cycle drain", cache.WriteBufferConfig{Depth: 6, DrainCycles: 5}},
		{"6-deep + page mode (DS5000)", cache.WriteBufferConfig{Depth: 6, DrainCycles: 5, PageMode: true, PageModeDrainCycles: 1}},
		{"12-deep + page mode", cache.WriteBufferConfig{Depth: 12, DrainCycles: 5, PageMode: true, PageModeDrainCycles: 1}},
	} {
		spec := *arch.R2000 // copy
		spec.Sim.WriteBuffer = cfg.wb
		res := sim.NewMachine(spec.Sim).Run(kernel.Program(&spec, kernel.Trap))
		t.AddRow(cfg.name,
			fmt.Sprintf("%.1f", res.Micros(spec.ClockMHz)),
			fmt.Sprintf("%.0f", res.WBStallCycles),
			fmt.Sprintf("%.0f%%", 100*res.WBStallCycles/res.Cycles))
	}
	fmt.Println(t)
}

// sweepTLB compares tagged vs untagged TLBs through the LRPC purge
// penalty of Section 3.2.
func sweepTLB() {
	t := trace.NewTable("A2: LRPC null call vs TLB tagging (per-architecture)",
		"Architecture", "TLB", "LRPC µs", "Purge-miss share")
	for _, base := range arch.Table1Set() {
		for _, tagged := range []bool{base.TLB.Tagged, !base.TLB.Tagged} {
			spec := *base
			spec.TLB.Tagged = tagged
			l := ipc.NewLRPC(&spec)
			b := l.NullCall()
			kind := "untagged"
			if tagged {
				kind = "tagged"
			}
			t.AddRow(base.Name, kind,
				fmt.Sprintf("%.1f", b.Total),
				fmt.Sprintf("%.0f%%", b.Share(ipc.CompTLBMisses)))
		}
	}
	fmt.Println(t)
	fmt.Println("Untagged TLBs purge twice per cross-address-space call; the paper estimates the refills at 25% of a CVAX LRPC.")
}

// sweepWindows varies the number of register windows in use at a
// context switch — the [Agarwal et al. 90] remark about dedicating a
// window per thread (zero spills) versus deep call chains.
func sweepWindows() {
	t := trace.NewTable("A3: SPARC context switch vs windows spilled per switch",
		"Windows spilled", "Context switch µs", "Window share")
	for _, n := range []int{0, 1, 2, 3, 4, 6, 8} {
		spec := *arch.SPARC
		spec.WindowsSavedPerSwitch = n
		res := sim.NewMachine(spec.Sim).Run(kernel.Program(&spec, kernel.ContextSwitch))
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", res.Micros(spec.ClockMHz)),
			fmt.Sprintf("%.0f%%", 100*res.WindowCycles/res.Cycles))
	}
	fmt.Println(t)
	fmt.Println("At 0 spills (a window dedicated per thread, as Agarwal et al. propose) the switch sheds its dominant cost.")
}

// sweepNetwork raises network bandwidth 10–100x — "with 10- to 100-fold
// improvements likely over the next several years, the lower bound on
// RPC performance will be due to the cost of operating system
// primitives".
func sweepNetwork() {
	t := trace.NewTable("A4: null RPC (R3000) vs network bandwidth",
		"Network", "RPC µs", "Wire µs", "Wire share", "CPU-bound?")
	for _, f := range []float64{1, 2, 10, 50, 100} {
		net := ipc.Ethernet10.Scaled(f, f)
		b := ipc.NewRPC(arch.R3000, net).NullRPC()
		wire := b.Components[ipc.CompWire]
		t.AddRow(fmt.Sprintf("%.0f Mb/s", net.BandwidthMbps),
			fmt.Sprintf("%.0f", b.Total),
			fmt.Sprintf("%.0f", wire),
			fmt.Sprintf("%.0f%%", b.Share(ipc.CompWire)),
			fmt.Sprintf("%v", wire < b.Total/2))
	}
	fmt.Println(t)
}

// sweepDecompose varies the number of user-level servers a service
// call traverses — Section 5's warning that primitive costs "may limit
// the extent to which systems such as Mach can be further decomposed".
// Each row is read from the simulated OS's exported metrics rather
// than ad-hoc Result field reads, so the columns stay in sync with
// what the OS exports. It returns the rendered table.
func sweepDecompose() string {
	t := trace.NewTable("A5: andrew-local under increasing OS decomposition",
		"Servers", "Elapsed s", "AS switches", "kTLB misses", "% in primitives")
	for _, servers := range []int{1, 2, 3, 5, 8} {
		cfg := mach.DefaultConfig(mach.Microkernel)
		cfg.Servers = servers
		o := mach.New(cfg)
		o.Run(workload.AndrewLocal)
		m := map[string]float64{}
		o.Metrics("", m)
		t.AddRow(fmt.Sprintf("%d", servers),
			fmt.Sprintf("%.1f", m["elapsed_sec"]),
			fmt.Sprintf("%.0f", m["as_switches"]),
			fmt.Sprintf("%.0f", m["ktlb_misses"]),
			fmt.Sprintf("%.1f%%", 100*m["prim_sec"]/m["elapsed_sec"]))
	}
	return t.String()
}
