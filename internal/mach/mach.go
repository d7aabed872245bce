// Package mach models the two operating-system structures of the
// paper's Section 5 experiment: Mach 2.5, "monolithic: the entire
// operating system executes in a privileged kernel address space", and
// Mach 3.0, "a small message-based kernel on which traditional
// operating system services are implemented as user-level programs".
// Running a workload.Spec through either structure yields the paper's
// Table 7 counters: address-space context switches, kernel thread
// switches, system calls, kernel-emulated instructions, kernel-mode TLB
// misses, other exceptions, and the share of elapsed time spent in
// primitive operations.
//
// The kernel-TLB-miss column is not a formula: the run drives a live
// TLB model (the measurement platform's 64-entry R3000 TLB) with the
// kernel-mapped pages (page tables, kernel stacks) and user working
// sets of every task the structure makes it touch, so the order-of-
// magnitude inflation under the decomposed system is an emergent
// property of "frequent context switching stress[ing] the limited
// number of TLB entries", exactly as the paper argues.
package mach

import (
	"archos/internal/arch"
	"archos/internal/kernel"
	"archos/internal/obs"
	"archos/internal/tlb"
	"archos/internal/workload"
)

// Structure selects the OS organisation.
type Structure int

const (
	// Monolithic is the Mach 2.5 structure: services in the kernel.
	Monolithic Structure = iota
	// Microkernel is the Mach 3.0 structure: services in user-level
	// servers reached by RPC.
	Microkernel
)

func (s Structure) String() string {
	if s == Microkernel {
		return "Mach 3.0 (microkernel)"
	}
	return "Mach 2.5 (monolithic)"
}

// Config parameterises an OS instance.
type Config struct {
	Spec      *arch.Spec
	Structure Structure

	// Servers is the number of user-level servers in the microkernel
	// configuration. The paper's Mach 3.0 has effectively two on the
	// local path (the Unix server and the file cache manager) — "not a
	// completely decomposed operating system: many services are
	// provided by a single application-level server which could more
	// logically be provided by multiple servers." The decomposition
	// ablation sweeps this.
	Servers int

	// KernelPagesPerTask is the number of mapped kernel pages (page
	// tables, kernel stack) touched when the kernel operates on a task;
	// UserPagesPerTask the user working set touched when a task runs.
	KernelPagesPerTask int
	UserPagesPerTask   int
}

// DefaultConfig returns the paper's measurement platform: a
// DECstation 5000/200 (MIPS R3000) under either structure.
func DefaultConfig(structure Structure) Config {
	return Config{
		Spec:               arch.R3000,
		Structure:          structure,
		Servers:            2,
		KernelPagesPerTask: 6,
		UserPagesPerTask:   10,
	}
}

// Result is one Table 7 row.
type Result struct {
	Workload  string
	Structure Structure

	ElapsedSec float64

	ASSwitches     int64 // address-space context switches
	ThreadSwitches int64 // kernel-level thread context switches
	Syscalls       int64 // kernel-handled system calls
	EmulInstrs     int64 // kernel-emulated instructions
	KTLBMisses     int64 // kernel-mode address TLB misses
	OtherExcept    int64 // other exceptions (interrupts + page faults)

	PrimSeconds float64 // time spent executing the primitives above
	PctInPrims  float64 // PrimSeconds / ElapsedSec × 100

	// PrimSecondsByKind decomposes PrimSeconds by primitive, indexed by
	// the PrimKind constants — which primitive the structure's overhead
	// actually lands on.
	PrimSecondsByKind [NumPrimKinds]float64
}

// PrimKind indexes Result.PrimSecondsByKind.
type PrimKind int

// The primitive-time buckets of a Table 7 row.
const (
	PrimSyscalls PrimKind = iota
	PrimASSwitches
	PrimThreadSwitches
	PrimEmulation
	PrimKTLBMisses
	PrimOtherExceptions
	NumPrimKinds
)

func (k PrimKind) String() string {
	switch k {
	case PrimSyscalls:
		return "system calls"
	case PrimASSwitches:
		return "AS switches"
	case PrimThreadSwitches:
		return "thread switches"
	case PrimEmulation:
		return "emulated instructions"
	case PrimKTLBMisses:
		return "kernel TLB misses"
	case PrimOtherExceptions:
		return "other exceptions"
	}
	return "unknown"
}

// OS is an operating-system instance ready to run workloads.
type OS struct {
	cfg Config
	cm  *kernel.CostModel

	// rec, when set, receives one "mach.prim.<kind>" histogram
	// observation per primitive kind per run (the run's total µs in that
	// primitive) — the per-operation-class latency surface of the mach
	// layer.
	rec *obs.Recorder

	// totals accumulates the Table 7 event counts and the priced
	// seconds across every Run, so the whole OS instance can be read
	// through one metrics snapshot instead of ad-hoc Result field
	// reads. Counts are summed as float64, which is exact below 2^53.
	totals map[string]float64
}

// New builds an OS from cfg. Zero or negative sizing fields are
// normalised to the paper's measurement platform: the stock two-server
// Mach 3.0 arrangement (Unix server + file cache manager) and its
// per-task page counts — so a zero-valued Config runs the microkernel
// path instead of tripping over a modulo-by-zero in the TLB drive.
func New(cfg Config) *OS {
	stock := DefaultConfig(cfg.Structure)
	if cfg.Servers <= 0 {
		cfg.Servers = stock.Servers
	}
	if cfg.KernelPagesPerTask <= 0 {
		cfg.KernelPagesPerTask = stock.KernelPagesPerTask
	}
	if cfg.UserPagesPerTask <= 0 {
		cfg.UserPagesPerTask = stock.UserPagesPerTask
	}
	return &OS{cfg: cfg, cm: kernel.NewCostModel(cfg.Spec), totals: map[string]float64{}}
}

// Config returns the OS configuration.
func (o *OS) Config() Config { return o.cfg }

// SetRecorder attaches an observability recorder; each Run then
// observes its per-primitive virtual time into "mach.prim.<kind>"
// histogram classes. Nil disables (the default).
func (o *OS) SetRecorder(rec *obs.Recorder) { o.rec = rec }

// Metrics writes everything this OS instance has counted and priced
// so far into out, each row named prefix plus the metric: event counts
// (runs, syscalls, as_switches, thread_switches, emul_instrs,
// ktlb_misses, other_exceptions) and priced totals (elapsed_sec,
// prim_sec, and prim_sec.<kind> per primitive). An OS that has not
// run writes nothing.
func (o *OS) Metrics(prefix string, out map[string]float64) {
	for k, v := range o.totals {
		out[prefix+k] = v
	}
}

// primSlug is the metrics/histogram name fragment for a primitive kind.
func primSlug(k PrimKind) string {
	switch k {
	case PrimSyscalls:
		return "syscalls"
	case PrimASSwitches:
		return "as_switches"
	case PrimThreadSwitches:
		return "thread_switches"
	case PrimEmulation:
		return "emulation"
	case PrimKTLBMisses:
		return "ktlb_misses"
	case PrimOtherExceptions:
		return "other_exceptions"
	}
	return "unknown"
}

// record folds one finished run into the OS's metrics surfaces.
func (o *OS) record(r Result) {
	t := o.totals
	t["runs"]++
	t["syscalls"] += float64(r.Syscalls)
	t["as_switches"] += float64(r.ASSwitches)
	t["thread_switches"] += float64(r.ThreadSwitches)
	t["emul_instrs"] += float64(r.EmulInstrs)
	t["ktlb_misses"] += float64(r.KTLBMisses)
	t["other_exceptions"] += float64(r.OtherExcept)
	t["elapsed_sec"] += r.ElapsedSec
	t["prim_sec"] += r.PrimSeconds
	for k := PrimKind(0); k < NumPrimKinds; k++ {
		t["prim_sec."+primSlug(k)] += r.PrimSecondsByKind[k]
		o.rec.Observe("mach.prim."+primSlug(k), r.PrimSecondsByKind[k]*1e6)
	}
}

// CostModel exposes the kernel cost model in use.
func (o *OS) CostModel() *kernel.CostModel { return o.cm }

// Run executes workload w and returns its Table 7 row.
func (o *OS) Run(w workload.Spec) Result {
	var r Result
	switch o.cfg.Structure {
	case Microkernel:
		r = o.runMicrokernel(w)
	default:
		r = o.runMonolithic(w)
	}
	o.record(r)
	return r
}

// RunAll executes every workload in order.
func (o *OS) RunAll(ws []workload.Spec) []Result {
	out := make([]Result, 0, len(ws))
	for _, w := range ws {
		out = append(out, o.Run(w))
	}
	return out
}

// ---- shared cost accounting ----

// primSeconds prices the counted primitive operations with the kernel
// cost model. Thread switches that do not change address spaces pay the
// non-AS portion of a context switch; kernel-emulated instructions pay
// a minimal kernel entry (no full syscall bookkeeping); kernel TLB
// misses pay the slow common-vector refill path.
func (o *OS) primSeconds(r *Result) float64 {
	spec := o.cfg.Spec
	kMissMicros := spec.TLB.KernelMissCycles / spec.ClockMHz
	threadOnly := float64(r.ThreadSwitches-r.ASSwitches) * 0.45 * o.cm.ContextSwitchMicros()
	if threadOnly < 0 {
		threadOnly = 0
	}
	r.PrimSecondsByKind = [NumPrimKinds]float64{
		PrimSyscalls:        float64(r.Syscalls) * o.cm.SyscallMicros() / 1e6,
		PrimASSwitches:      float64(r.ASSwitches) * o.cm.ContextSwitchMicros() / 1e6,
		PrimThreadSwitches:  threadOnly / 1e6,
		PrimEmulation:       float64(r.EmulInstrs) * 0.75 * o.cm.SyscallMicros() / 1e6,
		PrimKTLBMisses:      float64(r.KTLBMisses) * kMissMicros / 1e6,
		PrimOtherExceptions: float64(r.OtherExcept) * o.cm.TrapMicros() / 1e6,
	}
	total := 0.0
	for _, v := range r.PrimSecondsByKind {
		total += v
	}
	return total
}

// networkWaitSeconds is the time a remote-file-system workload spends
// waiting on the network, independent of OS structure.
func networkWaitSeconds(w workload.Spec) float64 {
	if !w.Remote {
		return 0
	}
	// Each remote read/write waits on a request/response exchange.
	const perOpMs = 0.85
	return float64(w.ReadWrites) * perOpMs / 1000
}

// tlbSim drives the architecture's TLB with a task-switching reference
// stream and returns the kernel-mode miss count. Each task has a
// kernel-mapped region (page tables, kernel stacks, mapped kernel data)
// and a user region, both referenced through rotating cursors so
// successive operations walk fresh parts of the working set rather than
// re-touching one hot page. A user-space miss additionally references
// the page-table page that maps it, in kernel mode — "Page tables, for
// instance, remain mapped in kernel mode; TLB entries are needed to map
// the page tables themselves" — which is the cascade that turns user
// TLB pressure into kernel TLB misses.
type tlbSim struct {
	t *tlb.TLB

	// Region sizes in pages; cursors rotate per task.
	kernelRegion int
	userRegion   int
	kCursor      map[int]int
	uCursor      map[int]int
}

func newTLBSim(cfg Config) *tlbSim {
	return &tlbSim{
		t:            tlb.New(cfg.Spec.TLB),
		kernelRegion: 24 * cfg.KernelPagesPerTask,
		userRegion:   64 * cfg.UserPagesPerTask,
		kCursor:      map[int]int{},
		uCursor:      map[int]int{},
	}
}

// touchKernel references n kernel-mapped pages of the task's kernel
// region at its rotating cursor.
func (ts *tlbSim) touchKernel(task, n int) {
	cur := ts.kCursor[task]
	for i := 0; i < n; i++ {
		vpn := uint64(0x80000 + task*0x1000 + (cur+i)%ts.kernelRegion)
		ts.t.Lookup(task, vpn, true)
	}
	ts.kCursor[task] = (cur + n/2 + 1) % ts.kernelRegion
}

// touchUser references n user pages at the task's rotating cursor; each
// user miss cascades into a kernel-mode reference to the mapping
// page-table page.
func (ts *tlbSim) touchUser(task, n int) {
	cur := ts.uCursor[task]
	for i := 0; i < n; i++ {
		vpn := uint64(0x1000 + task*0x100000 + (cur+i)%ts.userRegion)
		hit, _ := ts.t.Lookup(task, vpn, false)
		if !hit {
			// Refill walks the mapped page table: one kernel-mode
			// reference to the PT page covering this vpn.
			ptPage := uint64(0x90000+task*0x100) + vpn/1024
			ts.t.Lookup(task, ptPage, true)
		}
	}
	ts.uCursor[task] = (cur + n/2 + 1) % ts.userRegion
}

func (ts *tlbSim) kernelMisses() int64 {
	_, _, k, _ := ts.t.Stats()
	return k
}
