package obs

import (
	"fmt"
	"sort"

	"archos/internal/trace"
)

// Snapshot is one point-in-time view of a stack's counters, keyed
// "source.metric". A report fills it directly: each counter family
// that a report prints — wire.Stats, fsserver.Stats, faultplane.Counts,
// a Histogram, an AllocMeter, a mach.OS — writes its own rows through
// a Metrics method that takes the key prefix and the map to fill.
type Snapshot map[string]float64

// Keys returns the metric names in sorted order.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Diff returns s − prev per key (keys only in s keep their value;
// keys only in prev appear negated) — the interval view between two
// snapshots.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{}
	for k, v := range s {
		out[k] = v - prev[k]
	}
	for k, v := range prev {
		if _, ok := s[k]; !ok {
			out[k] = -v
		}
	}
	return out
}

// Table renders the snapshot as a two-column table in sorted key
// order. Integral values print without a fraction.
func (s Snapshot) Table(title string) *trace.Table {
	t := trace.NewTable(title, "Metric", "Value")
	for _, k := range s.Keys() {
		t.AddRow(k, formatMetric(s[k]))
	}
	return t
}

func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}
