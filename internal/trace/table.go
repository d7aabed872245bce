// Package trace renders the text tables every experiment prints: the
// paper's tables, and the reports and ablations built around them.
package trace

import (
	"fmt"
	"strings"
)

// Table is a simple text table used to render the paper's tables. Cells
// are strings; the first row is the header. Columns are right-aligned
// except the first, which is left-aligned (matching the paper's layout of
// an operation name column followed by numeric columns).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row. Cells beyond the header width are dropped; short
// rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row formatting each value with the verb matching its
// type: strings verbatim, float64 with two decimals, everything else %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// String renders the table with a title line, a rule, and aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
