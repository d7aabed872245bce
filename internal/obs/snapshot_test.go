package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotDiffAndKeys(t *testing.T) {
	before := Snapshot{"wire.Served": 0, "wire.Retries": 2, "plane.Dropped": 7}
	after := Snapshot{"wire.Served": 31, "wire.Retries": 2, "plane.Dropped": 7}
	d := after.Diff(before)
	if d["wire.Served"] != 31 || d["wire.Retries"] != 0 || d["plane.Dropped"] != 0 {
		t.Errorf("diff = %v", d)
	}
	wantKeys := []string{"plane.Dropped", "wire.Retries", "wire.Served"}
	if got := after.Keys(); !reflect.DeepEqual(got, wantKeys) {
		t.Errorf("keys = %v, want %v", got, wantKeys)
	}
}

func TestSnapshotDiffKeysOnlyInPrev(t *testing.T) {
	prev := Snapshot{"gone": 4}
	d := Snapshot{"new": 1}.Diff(prev)
	if d["gone"] != -4 || d["new"] != 1 {
		t.Errorf("diff = %v", d)
	}
}

func TestHistogramMetrics(t *testing.T) {
	r := NewRecorder(nil)
	r.Observe("lat", 100)
	r.Observe("lat", 100)
	got := Snapshot{}
	r.Histogram("lat").Metrics("rpc.", got)
	want := Snapshot{"rpc.count": 2, "rpc.p50": 100, "rpc.p90": 100, "rpc.p99": 100, "rpc.max": 100, "rpc.mean": 100}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("histogram metrics = %v, want %v", got, want)
	}
	// A nil histogram is an empty one: the same six rows, all zero.
	empty := Snapshot{}
	(*Histogram)(nil).Metrics("rpc.", empty)
	for _, k := range want.Keys() {
		if v, ok := empty[k]; !ok || v != 0 {
			t.Errorf("nil histogram: %s = %v (present %v), want 0", k, v, ok)
		}
	}
	if len(empty) != len(want) {
		t.Errorf("nil histogram wrote %d rows, want %d", len(empty), len(want))
	}
}

func TestAllocMeterMetricsPerOpOnlyWithOps(t *testing.T) {
	m := NewAllocMeter()
	none := Snapshot{}
	m.Metrics(0, "goheap.", none)
	if got := none.Keys(); !reflect.DeepEqual(got, []string{"goheap.bytes", "goheap.mallocs"}) {
		t.Errorf("ops=0 rows = %v", got)
	}
	perOp := Snapshot{}
	m.Metrics(4, "goheap.", perOp)
	want := []string{"goheap.allocs_per_op", "goheap.bytes", "goheap.bytes_per_op", "goheap.mallocs"}
	if got := perOp.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("ops=4 rows = %v, want %v", got, want)
	}
	if perOp["goheap.allocs_per_op"] != perOp["goheap.mallocs"]/4 {
		t.Errorf("allocs_per_op %v is not mallocs %v / 4", perOp["goheap.allocs_per_op"], perOp["goheap.mallocs"])
	}
}

func TestSnapshotTableFormatting(t *testing.T) {
	s := Snapshot{"a.ints": 4, "a.floats": 2.5}
	out := s.Table("T").String()
	for _, want := range []string{"a.ints", "4", "a.floats", "2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
