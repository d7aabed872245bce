package archos_test

import (
	"testing"

	"archos/internal/arch"
	"archos/internal/cache"
	"archos/internal/core"
	"archos/internal/fs"
	"archos/internal/fsserver"
	"archos/internal/ipc"
	"archos/internal/ipc/wire"
	"archos/internal/kernel"
	"archos/internal/mach"
	"archos/internal/memstudy"
	"archos/internal/mmu"
	"archos/internal/sim"
	"archos/internal/threads"
	"archos/internal/tlb"
	"archos/internal/vm"
	"archos/internal/workload"
)

// One benchmark per paper table: each times a full regeneration of the
// table's underlying experiment. b.ReportMetric attaches the headline
// simulated quantity so `go test -bench` output doubles as a results
// sheet.

// BenchmarkTable1PrimitiveTimes regenerates the Table 1 measurements:
// all four primitives on all five timed architectures.
func BenchmarkTable1PrimitiveTimes(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, s := range arch.Table1Set() {
			for _, p := range kernel.Primitives() {
				last = kernel.Measure(s, p).Micros
			}
		}
	}
	b.ReportMetric(last, "sparc-ctxsw-µs")
}

// BenchmarkTable1PerArch times the four primitives on each architecture
// separately (sub-benchmarks, one per Table 1 column).
func BenchmarkTable1PerArch(b *testing.B) {
	for _, s := range arch.Table1Set() {
		b.Run(s.Name, func(b *testing.B) {
			var micros float64
			for i := 0; i < b.N; i++ {
				micros = 0
				for _, p := range kernel.Primitives() {
					micros += kernel.Measure(s, p).Micros
				}
			}
			b.ReportMetric(micros, "sum-µs")
		})
	}
}

// BenchmarkTable2InstructionCounts regenerates the Table 2 instruction
// counts (the i860 included).
func BenchmarkTable2InstructionCounts(b *testing.B) {
	var instrs int
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, s := range arch.Table2Set() {
			for _, p := range kernel.Primitives() {
				instrs += kernel.Program(s, p).Instructions(s.Sim.WindowInstrs())
			}
		}
	}
	b.ReportMetric(float64(instrs), "instructions")
}

// BenchmarkTable3SRCRPC regenerates the Table 3 SRC RPC breakdown.
func BenchmarkTable3SRCRPC(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = ipc.NewRPC(arch.CVAX, ipc.Ethernet10).NullRPC().Total
	}
	b.ReportMetric(total, "rpc-µs")
}

// BenchmarkTable4LRPC regenerates the Table 4 LRPC breakdown.
func BenchmarkTable4LRPC(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = ipc.NewLRPC(arch.CVAX).NullCall().Total
	}
	b.ReportMetric(total, "lrpc-µs")
}

// BenchmarkTable5SyscallDecomposition regenerates the Table 5 phase
// decomposition on its three architectures.
func BenchmarkTable5SyscallDecomposition(b *testing.B) {
	names := []string{"CVAX", "MIPS R2000", "Sun SPARC"}
	var prep float64
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			s, _ := arch.ByName(n)
			m := kernel.Measure(s, kernel.NullSyscall)
			prep = kernel.PrepMicros(m.Result, s.ClockMHz)
		}
	}
	b.ReportMetric(prep, "sparc-prep-µs")
}

// BenchmarkTable6ThreadState regenerates the Table 6 thread-state
// figures and the derived per-architecture thread operation costs.
func BenchmarkTable6ThreadState(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		for _, s := range arch.Table6Set() {
			c := threads.NewCosts(s)
			if s.Name == arch.SPARC.Name {
				ratio = c.SwitchOverCall()
			}
		}
	}
	b.ReportMetric(ratio, "sparc-switch/call")
}

// BenchmarkTable7 regenerates both halves of Table 7 (all seven
// workloads under both OS structures, including the live-TLB kernel-
// miss simulation).
func BenchmarkTable7(b *testing.B) {
	var ktlb int64
	for i := 0; i < b.N; i++ {
		mono := mach.New(mach.DefaultConfig(mach.Monolithic))
		micro := mach.New(mach.DefaultConfig(mach.Microkernel))
		for _, w := range workload.All() {
			mono.Run(w)
			r := micro.Run(w)
			if w.Name == "andrew-remote" {
				ktlb = r.KTLBMisses
			}
		}
	}
	b.ReportMetric(float64(ktlb), "andrew-remote-ktlb")
}

// BenchmarkTable7Microkernel times only the decomposed structure, per
// workload.
func BenchmarkTable7Microkernel(b *testing.B) {
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			os := mach.New(mach.DefaultConfig(mach.Microkernel))
			var pct float64
			for i := 0; i < b.N; i++ {
				pct = os.Run(w).PctInPrims
			}
			b.ReportMetric(pct, "%in-prims")
		})
	}
}

// --- In-text experiments ---

// BenchmarkSpriteScaling reproduces the §2.1 Sprite datapoint: RPC time
// across the architecture generations versus integer performance.
func BenchmarkSpriteScaling(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := ipc.NewRPC(arch.CVAX, ipc.Ethernet10).NullRPC().Total
		speedup = base / ipc.NewRPC(arch.R3000, ipc.Ethernet10).NullRPC().Total
	}
	b.ReportMetric(speedup, "rpc-speedup")
	b.ReportMetric(arch.R3000.SPECRelativeTo(arch.CVAX), "app-speedup")
}

// BenchmarkSynapse reproduces the §4.1 Synapse call:switch experiment
// on the SPARC.
func BenchmarkSynapse(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = threads.RunSynapse(arch.SPARC, 4, 100, 30).CallSwitchRatio
	}
	b.ReportMetric(ratio, "calls-per-switch")
}

// BenchmarkParthenonLocks reproduces the §4.1 parthenon observation:
// 1.4M kernel-trap synchronizations priced on the R3000.
func BenchmarkParthenonLocks(b *testing.B) {
	c := threads.NewCosts(arch.R3000)
	var secs float64
	for i := 0; i < b.N; i++ {
		secs = 1_395_000 * c.LockKernel / 1e6
	}
	b.ReportMetric(secs, "sync-seconds")
}

// BenchmarkDSMPingPong times the distributed-shared-memory write
// ping-pong protocol path.
func BenchmarkDSMPingPong(b *testing.B) {
	costs := vm.NewFaultCosts(arch.R3000)
	for i := 0; i < b.N; i++ {
		d := vm.NewDSM(costs, ipc.Ethernet10, 2)
		for j := 0; j < 100; j++ {
			d.Nodes()[0].Write(1)
			d.Nodes()[1].Write(1)
		}
	}
}

// BenchmarkCOWFault times the copy-on-write fault resolution path.
func BenchmarkCOWFault(b *testing.B) {
	costs := vm.NewFaultCosts(arch.R3000)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := vm.NewCOW(costs)
		src := mmu.NewAddressSpace(1, mmu.NewHashTable())
		dst := mmu.NewAddressSpace(2, mmu.NewHashTable())
		src.MapNew(10, mmu.ProtReadWrite)
		if err := c.Share(src, dst, 10); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := c.Write(dst, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md A1–A5) ---

// BenchmarkAblationWriteBuffer sweeps write-buffer designs under the
// MIPS trap handler (A1).
func BenchmarkAblationWriteBuffer(b *testing.B) {
	configs := []cache.WriteBufferConfig{
		{Depth: 0, DrainCycles: 5},
		{Depth: 4, DrainCycles: 5},
		{Depth: 6, DrainCycles: 5, PageMode: true, PageModeDrainCycles: 1},
	}
	var micros float64
	for i := 0; i < b.N; i++ {
		for _, wb := range configs {
			spec := *arch.R2000
			spec.Sim.WriteBuffer = wb
			micros = sim.NewMachine(spec.Sim).Run(kernel.Program(&spec, kernel.Trap)).Micros(spec.ClockMHz)
		}
	}
	b.ReportMetric(micros, "pagemode-trap-µs")
}

// BenchmarkAblationTLB sweeps TLB tagging through the LRPC purge
// penalty (A2).
func BenchmarkAblationTLB(b *testing.B) {
	var untaggedOverhead float64
	for i := 0; i < b.N; i++ {
		spec := *arch.R3000
		spec.TLB.Tagged = false
		untaggedOverhead = ipc.NewLRPC(&spec).NullCall().Total - ipc.NewLRPC(arch.R3000).NullCall().Total
	}
	b.ReportMetric(untaggedOverhead, "untagged-penalty-µs")
}

// BenchmarkAblationWindows sweeps windows-spilled-per-switch on the
// SPARC context switch (A3).
func BenchmarkAblationWindows(b *testing.B) {
	var zero, three float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{0, 3} {
			spec := *arch.SPARC
			spec.WindowsSavedPerSwitch = n
			m := sim.NewMachine(spec.Sim).Run(kernel.Program(&spec, kernel.ContextSwitch)).Micros(spec.ClockMHz)
			if n == 0 {
				zero = m
			} else {
				three = m
			}
		}
	}
	b.ReportMetric(three-zero, "3-window-cost-µs")
}

// BenchmarkAblationNetwork sweeps network bandwidth under the null RPC
// (A4).
func BenchmarkAblationNetwork(b *testing.B) {
	var wireShare float64
	for i := 0; i < b.N; i++ {
		fast := ipc.NewRPC(arch.R3000, ipc.Ethernet10.Scaled(100, 100)).NullRPC()
		wireShare = fast.Share(ipc.CompWire)
	}
	b.ReportMetric(wireShare, "wire%at-1Gb")
}

// BenchmarkAblationDecomposition sweeps the number of user-level
// servers (A5).
func BenchmarkAblationDecomposition(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		cfg := mach.DefaultConfig(mach.Microkernel)
		cfg.Servers = 8
		pct = mach.New(cfg).Run(workload.AndrewLocal).PctInPrims
	}
	b.ReportMetric(pct, "%prims-at-8-servers")
}

// --- Substrate micro-benchmarks ---

// BenchmarkTLBLookup times the TLB model's hot path.
func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(arch.R3000.TLB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(i%4, uint64(i%512), i%3 == 0)
	}
}

// BenchmarkCacheAccess times the cache model's hot path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(arch.R3000.DCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, uint64(i*64%(1<<20)), i%4 == 0)
	}
}

// BenchmarkMachineRun times one execution of the heaviest handler
// program (the SPARC context switch).
func BenchmarkMachineRun(b *testing.B) {
	prog := kernel.Program(arch.SPARC, kernel.ContextSwitch)
	m := arch.SPARC.Machine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(prog)
	}
}

// BenchmarkThreadSystem times the cooperative thread scheduler.
func BenchmarkThreadSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := threads.New(arch.R3000)
		for w := 0; w < 4; w++ {
			sys.Spawn("w", func(t *threads.Thread) {
				for j := 0; j < 25; j++ {
					t.Yield()
				}
			})
		}
		sys.Run()
	}
}

// BenchmarkTableGeneration times the full Table 1 rendering through the
// core experiment framework.
func BenchmarkTableGeneration(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(core.Table1().String())
	}
	b.ReportMetric(float64(n), "bytes")
}

// --- Extension experiments ---

// BenchmarkTLBStudy times the Clark & Emer-style trace-driven TLB
// study on the CVAX.
func BenchmarkTLBStudy(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		share = memstudy.Run(arch.CVAX, memstudy.DefaultTrace()).SystemMissShare
	}
	b.ReportMetric(100*share, "os-miss-share%")
}

// BenchmarkAffinityScheduling times the kernel-thread scheduling
// experiment on the R3000's 64-entry TLB.
func BenchmarkAffinityScheduling(b *testing.B) {
	var inflation float64
	for i := 0; i < b.N; i++ {
		inflation = threads.RunAffinity(arch.R3000, 6, 4, 20, 12).MissInflation
	}
	b.ReportMetric(inflation, "miss-inflation")
}

// BenchmarkSchedulerActivations times both thread regimes on an
// I/O-bound workload.
func BenchmarkSchedulerActivations(b *testing.B) {
	wl := threads.UniformWorkload(8, 5, 200, 500)
	var speedup float64
	for i := 0; i < b.N; i++ {
		kt, act, _ := threads.CompareActivations(arch.R3000, 2, wl)
		speedup = kt.MakespanMicros / act.MakespanMicros
	}
	b.ReportMetric(speedup, "sa-speedup")
}

// BenchmarkWireRPC times the functional wire transport end to end.
func BenchmarkWireRPC(b *testing.B) {
	link := wire.NewLink(ipc.Ethernet10)
	client := wire.NewClient(link, wire.A)
	server := wire.NewServer(link, wire.B)
	server.RegisterRaw(1, func(h wire.Header, a *wire.Args, rep *wire.Reply) error {
		rep.Bytes(a.Bytes())
		return a.Err()
	})
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := client.NewCallArgs()
		w.Bytes(payload)
		if _, err := client.CallRaw(server, 1, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireChecksum times the real checksum inner loop.
func BenchmarkWireChecksum(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Checksum(buf)
	}
}

// BenchmarkArchFixVariants times the what-if handler variants of
// cmd/sweep -archfix.
func BenchmarkArchFixVariants(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		stock := kernel.Measure(arch.M88000, kernel.NullSyscall)
		fix := kernel.VariantCost(arch.M88000, kernel.M88000DeferredExceptionSyscall(arch.M88000))
		saved = 100 * (1 - fix.Micros/stock.Micros)
	}
	b.ReportMetric(saved, "88k-syscall-saved%")
}

// BenchmarkFunctionalAndrew runs the real andrew-mini script through
// both OS arrangements of the functional file service.
func BenchmarkFunctionalAndrew(b *testing.B) {
	cm := kernel.NewCostModel(arch.R3000)
	script := fsserver.DefaultAndrewMini()
	var factor float64
	for i := 0; i < b.N; i++ {
		direct := fsserver.NewDirect(fs.New(256), cm)
		remote := fsserver.NewRemote(fs.New(256), cm)
		if _, err := script.Run(direct); err != nil {
			b.Fatal(err)
		}
		if _, err := script.Run(remote); err != nil {
			b.Fatal(err)
		}
		factor = remote.Stats().VirtualMicros / direct.Stats().VirtualMicros
	}
	b.ReportMetric(factor, "decomposition-factor")
}

// BenchmarkFSOperations times the raw in-memory file system.
func BenchmarkFSOperations(b *testing.B) {
	fsys := fs.New(1024)
	if err := fsys.Mkdir("/bench"); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := "/bench/f"
		if err := fsys.WriteFile(path, data); err != nil {
			b.Fatal(err)
		}
		if _, err := fsys.ReadFile(path); err != nil {
			b.Fatal(err)
		}
		if err := fsys.Unlink(path); err != nil {
			b.Fatal(err)
		}
	}
}
