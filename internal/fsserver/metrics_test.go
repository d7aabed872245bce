package fsserver

import (
	"reflect"
	"testing"

	"archos/internal/faultplane"
	"archos/internal/ipc/wire"
)

// TestMetricsWriteOneRowPerField sets every counter field of each
// counter family a report prints to a distinct value, and requires its
// Metrics method to write exactly one row per field, named after the
// field and carrying its value; fsserver.Stats' transport counters go
// under "Wire.". A counter field added without a row, or a row that is
// misnamed, fails here; the report goldens then show the row move.
func TestMetricsWriteOneRowPerField(t *testing.T) {
	var ws wire.Stats
	var ss Stats
	var fc faultplane.Counts
	for _, c := range []struct {
		name    string
		ptr     interface{}
		metrics func(prefix string, out map[string]float64)
	}{
		{"wire.Stats", &ws, func(p string, out map[string]float64) { ws.Metrics(p, out) }},
		{"fsserver.Stats", &ss, func(p string, out map[string]float64) { ss.Metrics(p, out) }},
		{"faultplane.Counts", &fc, func(p string, out map[string]float64) { fc.Metrics(p, out) }},
	} {
		want := map[string]float64{}
		next := 0.0
		fillDistinct(t, reflect.ValueOf(c.ptr).Elem(), "x.", &next, want)
		got := map[string]float64{}
		c.metrics("x.", got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s.Metrics wrote\n%v\nwant one row per field\n%v", c.name, got, want)
		}
	}
}

// fillDistinct sets every numeric field of the struct v, nested
// structs included, to a distinct value, and records in rows the row
// each field must produce: prefix plus the field's dotted name, with
// that value. Float fields get a fraction, so a row that truncates
// one fails.
func fillDistinct(t *testing.T, v reflect.Value, prefix string, next *float64, rows map[string]float64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		*next++
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*next))
			rows[name] = *next
		case reflect.Float64:
			f.SetFloat(*next + 0.5)
			rows[name] = *next + 0.5
		case reflect.Struct:
			fillDistinct(t, f, name+".", next, rows)
		default:
			t.Fatalf("field %s has kind %v; give it a row and a case here", name, f.Kind())
		}
	}
}
