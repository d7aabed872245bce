package main

import (
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// latHist is a log-linear latency histogram over nanoseconds: exact
// below 128 ns, then 64 sub-buckets per power of two (≤1.6% bucket
// width). It is a fixed array, so recording an op allocates nothing and
// the measured loop's heap is the program's alone.
type latHist struct {
	counts [64 * 64]uint64
	n      uint64
	sum    uint64
}

const subBits = 6

func bucketOf(ns uint64) int {
	if ns < 1<<(subBits+1) {
		return int(ns)
	}
	e := bits.Len64(ns) - subBits - 1
	return (e+1)<<subBits | int(ns>>uint(e))&(1<<subBits-1)
}

// bucketRange returns the [lo, hi) nanosecond range of bucket b.
func bucketRange(b int) (lo, hi float64) {
	if b < 1<<(subBits+1) {
		return float64(b), float64(b + 1)
	}
	e := b>>subBits - 1
	m := uint64(b&(1<<subBits-1) | 1<<subBits)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *latHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bucketOf(uint64(ns))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
	h.sum += uint64(ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly by rank inside the bucket that holds it.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return lo
}

func (h *latHist) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// cpuNow is the process's user+system CPU time: every thread, so GC
// work on the other core is counted even where wall time hides it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slice is one stretch of a timed loop. Metrics are computed per slice.
// On a shared virtual machine the dominant noise is CPU time the
// hypervisor gives to other guests: it slows every op, and the caches
// it leaves behind slow the CPU time of the ops too. The loop therefore
// records the machine's stolen ticks per slice, and a run reports the
// median over the half of its slices during which the least was stolen.
type slice struct {
	ops   int64
	wall  time.Duration
	cpu   time.Duration
	steal int64 // machine-wide stolen CPU ticks during the slice
	lat   latHist
}

// loopStats is what a timed loop hands back.
type loopStats struct {
	slices   []*slice
	ops      int64
	failed   int64
	wall     time.Duration
	mallocs  uint64
	allocB   uint64
	numGC    uint32
	heapLive []float64 // HeapAlloc after a forced GC at each slice boundary, bytes
	lat      latHist   // every op of the loop
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cleanest returns the half of the slices with the least stolen time
// per second, in loop order among equals.
func (ls *loopStats) cleanest() []*slice {
	s := append([]*slice(nil), ls.slices...)
	rate := func(x *slice) float64 { return float64(x.steal) / x.wall.Seconds() }
	sort.SliceStable(s, func(i, j int) bool { return rate(s[i]) < rate(s[j]) })
	return s[:(len(s)+1)/2]
}

// overClean is the median of f over the cleanest half of the slices.
func (ls *loopStats) overClean(f func(*slice) float64) float64 {
	var vals []float64
	for _, s := range ls.cleanest() {
		if s.ops > 0 {
			vals = append(vals, f(s))
		}
	}
	return median(vals)
}

func (ls *loopStats) opsPerSec() float64 {
	return ls.overClean(func(s *slice) float64 { return float64(s.ops) / s.wall.Seconds() })
}

func (ls *loopStats) cpuUsPerOp() float64 {
	return ls.overClean(func(s *slice) float64 { return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.ops) })
}

// latUs is the q-quantile op latency in µs, per slice, over the cleanest
// half of the slices.
func (ls *loopStats) latUs(q float64) float64 {
	return ls.overClean(func(s *slice) float64 { return s.lat.quantile(q) / 1e3 })
}

func (ls *loopStats) allocsPerOp() float64 { return float64(ls.mallocs) / float64(ls.ops) }

func (ls *loopStats) heapLiveMB() float64 { return mean(ls.heapLive) / 1e6 }

// timedLoop runs step until seconds of slice time have elapsed, cut
// into about n slices. Each step reports how many ops it issued and how
// many failed, and records every op's latency into the slice's
// histogram. A slice closes after the first step that ends past its
// share of the time; between slices the loop forces a GC and samples
// the live heap, off the slice clocks.
func timedLoop(seconds float64, n int, step func(lat *latHist) (ops, failed int64)) *loopStats {
	ls := &loopStats{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	budget := time.Duration(seconds * float64(time.Second))
	sliceTarget := budget / time.Duration(n)
	for ls.wall < budget {
		s := &slice{}
		c0, st0, t0 := cpuNow(), stealTicks(), time.Now()
		for {
			ops, failed := step(&s.lat)
			s.ops += ops
			ls.failed += failed
			if time.Since(t0) >= sliceTarget {
				break
			}
		}
		s.wall = time.Since(t0)
		s.cpu = cpuNow() - c0
		s.steal = stealTicks() - st0
		ls.wall += s.wall
		ls.ops += s.ops
		ls.lat.merge(&s.lat)
		ls.slices = append(ls.slices, s)
		runtime.ReadMemStats(&m1)
		ls.mallocs += m1.Mallocs - m0.Mallocs
		ls.allocB += m1.TotalAlloc - m0.TotalAlloc
		ls.numGC += m1.NumGC - m0.NumGC
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ls.heapLive = append(ls.heapLive, float64(m0.HeapAlloc))
	}
	return ls
}

// Slices per timed loop: a closed-loop step is one iteration of a few
// milliseconds, a soak step one RunLoad pair of about half a second, so
// the soak's slices are fewer and each holds several pairs.
const (
	sliceCount     = 30
	soakSliceCount = 8
)
