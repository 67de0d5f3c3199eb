// Package experiments regenerates every figure of the paper's evaluation
// section (Figures 5, 6 and 7, plus the derived optimal-T_sync analysis
// the paper closes with) and the ablations DESIGN.md calls out, as text
// tables. cmd/cosim-experiments is the CLI front end.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Append adds a row, formatting each cell with %v.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note records a caption line printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	fmt.Fprintln(w, line(t.Header))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

// CSV renders the table as comma-separated values (for plotting).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
