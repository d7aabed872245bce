package obs

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistrySnapshotAndDiff(t *testing.T) {
	g := NewRegistry()
	served := 0.0
	g.Register("wire", func() map[string]float64 {
		return map[string]float64{"Served": served, "Retries": 2}
	})
	g.Register("plane", func() map[string]float64 {
		return map[string]float64{"Dropped": 7}
	})

	before := g.Snapshot()
	if before["wire.Served"] != 0 || before["plane.Dropped"] != 7 {
		t.Errorf("snapshot = %v", before)
	}
	served = 31
	after := g.Snapshot()
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

func TestStructSourceFlattensNumericFields(t *testing.T) {
	type inner struct {
		Retries int
		Backoff float64
	}
	type outer struct {
		Served  int64
		Skipped string // non-numeric: dropped
		Wire    inner
		hidden  int // unexported: dropped
	}
	src := StructSource(func() interface{} {
		return outer{Served: 9, Skipped: "x", Wire: inner{Retries: 3, Backoff: 1.5}, hidden: 1}
	})
	got := src()
	want := map[string]float64{"Served": 9, "Wire.Retries": 3, "Wire.Backoff": 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flattened = %v, want %v", got, want)
	}
	// Pointers to structs flatten the same way.
	srcPtr := StructSource(func() interface{} { return &outer{Served: 1} })
	if srcPtr()["Served"] != 1 {
		t.Error("pointer struct not flattened")
	}
}

func TestHistogramSource(t *testing.T) {
	r := NewRecorder(nil)
	r.Observe("lat", 100)
	r.Observe("lat", 100)
	got := HistogramSource(r, "lat")()
	if got["count"] != 2 || got["max"] != 100 || got["p50"] != 100 {
		t.Errorf("histogram source = %v", got)
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
