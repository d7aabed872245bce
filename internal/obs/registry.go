package obs

import (
	"fmt"
	"reflect"
	"sort"

	"archos/internal/trace"
)

// Source produces a flat name→value view of one subsystem's counters
// at the moment of the call. wire.Stats, faultplane.Counts and mach
// metrics all adapt to it (StructSource or a hand-written func).
type Source func() map[string]float64

// Registry unifies the stack's scattered counter surfaces behind one
// snapshot/diff API: register each subsystem's Source under a name,
// then Snapshot() the whole stack at once. Like the stack whose
// counters it reads, a registry belongs to one goroutine at a time.
type Registry struct {
	names   []string
	sources map[string]Source
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: map[string]Source{}}
}

// Register binds a source under name; its metrics appear in snapshots
// as "name.metric". Re-registering a name replaces the source.
func (g *Registry) Register(name string, src Source) {
	if _, ok := g.sources[name]; !ok {
		g.names = append(g.names, name)
	}
	g.sources[name] = src
}

// Snapshot reads every source once and returns the combined view.
func (g *Registry) Snapshot() Snapshot {
	out := Snapshot{}
	for _, n := range g.names {
		for k, v := range g.sources[n]() {
			out[n+"."+k] = v
		}
	}
	return out
}

// Snapshot is one point-in-time view of every registered metric, keyed
// "source.metric".
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

// StructSource adapts a struct of numeric fields — wire.Stats,
// faultplane.Counts, fsserver.Stats — to a Source by reflecting over
// its exported fields; nested structs flatten with a dotted prefix.
// Non-numeric fields are skipped.
func StructSource(get func() interface{}) Source {
	return func() map[string]float64 {
		out := map[string]float64{}
		flattenStruct("", reflect.ValueOf(get()), out)
		return out
	}
}

func flattenStruct(prefix string, v reflect.Value, out map[string]float64) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), t.Field(i)
		if !ft.IsExported() {
			continue
		}
		name := prefix + ft.Name
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			out[name] = float64(f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[name] = float64(f.Uint())
		case reflect.Float32, reflect.Float64:
			out[name] = f.Float()
		case reflect.Struct:
			flattenStruct(name+".", f, out)
		}
	}
}

// HistogramSource exposes a recorder histogram class's summary
// statistics (count, p50, p90, p99, max, mean) as a Source.
func HistogramSource(r *Recorder, class string) Source {
	return func() map[string]float64 {
		h := r.Histogram(class)
		return map[string]float64{
			"count": float64(h.Count()),
			"p50":   h.P50(),
			"p90":   h.P90(),
			"p99":   h.P99(),
			"max":   h.Max(),
			"mean":  h.Mean(),
		}
	}
}
