package trace

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "Op", "A", "B")
	tb.AddRow("first", "1.0", "2.0")
	tb.AddRowf("second", 3.14159, 7)
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "3.14") {
		t.Errorf("float not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// All data lines align: same rendered width.
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")               // short: padded
	tb.AddRow("x", "y", "z", "too") // long: truncated
	if len(tb.Rows[0]) != 3 || len(tb.Rows[1]) != 3 {
		t.Errorf("row widths %d/%d, want 3/3", len(tb.Rows[0]), len(tb.Rows[1]))
	}
	if tb.Rows[1][2] != "z" {
		t.Error("truncation dropped the wrong cell")
	}
}
