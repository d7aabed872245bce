package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host identifies the machine a result was measured on, with the times
// of a fixed integer loop and a fixed memory-bound loop and the share of
// CPU time the hypervisor stole while the run measured: a set of runs
// taken while the machine drifted shows up as a drift in those. The
// integer loop follows the core's speed, the memory loop contention for
// the shared cache and memory; other guests can slow both, and the file
// service with them, while stealing almost no time.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	RefLoopMs  float64 `json:"ref_loop_ms"`
	MemLoopMs  float64 `json:"mem_loop_ms"`
	StealFrac  float64 `json:"steal_frac"`
}

func hostFingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		RefLoopMs:  refLoopMs(),
		MemLoopMs:  memLoopMs(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoopMs times 2^25 rounds of xorshift: pure ALU work, no memory.
func refLoopMs() float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 1<<25; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// memLoopMs times 2^20 dependent loads around one random cycle through
// 8 MB, more than a core's share of a shared last-level cache, so
// nearly every load misses it.
func memLoopMs() float64 {
	const n = 1 << 21 // int32 entries
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's shuffle makes next one cycle through every entry.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	p := int32(0)
	t0 := time.Now()
	for i := 0; i < 1<<20; i++ {
		p = next[p]
	}
	refSink = uint64(p)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// stealTicks is the CPU time the hypervisor has stolen from this
// machine, summed over CPUs, in /proc/stat ticks; 0 where the kernel
// does not report it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// ticksPerSecond is the /proc/stat tick rate (USER_HZ), 100 on Linux.
const ticksPerSecond = 100

// stealFrac is the share of the machine's CPU time stolen between two
// stealTicks readings d apart.
func stealFrac(ticks int64, d time.Duration) float64 {
	return float64(ticks) / ticksPerSecond / d.Seconds() / float64(runtime.NumCPU())
}
