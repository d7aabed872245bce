package obs

import "runtime"

// AllocMeter measures Go heap allocation across an interval of real
// execution — the host-side cost of running the simulation, as opposed
// to the virtual-time costs every other counter reports. Reset marks
// the start of the interval; Metrics reads cumulative mallocs and
// bytes since the mark and divides them by the interval's operation
// count, so a workload replay reports allocs/op alongside its
// virtual-time metrics.
//
// Allocation counts come from runtime.ReadMemStats, so they are
// machine- and runtime-version-local and NOT deterministic across
// runs; callers that promise byte-identical output (the soak CLIs'
// default modes) must keep these metrics behind an opt-in flag.
type AllocMeter struct {
	base runtime.MemStats
}

// NewAllocMeter returns a meter with its mark set to now.
func NewAllocMeter() *AllocMeter {
	m := &AllocMeter{}
	m.Reset()
	return m
}

// Reset moves the mark to now.
func (m *AllocMeter) Reset() {
	runtime.ReadMemStats(&m.base)
}

// Metrics writes the heap mallocs and allocated bytes since the mark
// into out as prefix+"mallocs" and prefix+"bytes". When ops, the
// operation count of the same interval, is positive it also writes
// their per-op quotients as allocs_per_op and bytes_per_op.
func (m *AllocMeter) Metrics(ops int64, prefix string, out map[string]float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	mallocs := float64(now.Mallocs - m.base.Mallocs)
	bytes := float64(now.TotalAlloc - m.base.TotalAlloc)
	out[prefix+"mallocs"] = mallocs
	out[prefix+"bytes"] = bytes
	if ops > 0 {
		out[prefix+"allocs_per_op"] = mallocs / float64(ops)
		out[prefix+"bytes_per_op"] = bytes / float64(ops)
	}
}
