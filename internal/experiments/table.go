// Package experiments reproduces the figures of the paper's evaluation
// (Section 7) and runs scenario grids (GridSpec) beyond them, all as
// campaigns. The collective figures are short lists of GridSpecs whose
// reducers read the campaign back by position; the ping-pong, DT and EP
// figures still build their jobs directly. Each FigureN function returns a
// Table whose rows match the series the paper plots, plus the error
// summaries quoted in the text. cmd/experiments, smpigod and the
// repository's benchmark suite are thin wrappers around this package.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result: a title, a header, aligned rows,
// and free-form notes (error summaries, observations).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}
