// Package tablefmt renders fixed-width text tables for the experiment
// harness. Output is deterministic and aligned so tables can be diffed
// across runs and pasted into the README.
package tablefmt

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-form footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// formatFloat prints floats compactly: integers without decimals, small
// values with enough precision to be meaningful.
func formatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v != 0 && (v < 0.001 && v > -0.001):
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total >= 2 {
		total -= 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
