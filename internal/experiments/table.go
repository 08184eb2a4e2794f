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
	"reflect"
	"strings"

	"smpigo/internal/core"
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

// Figure is one figure or sweep of the evaluation, as cmd/experiments -fig
// names it.
type Figure struct {
	ID  string
	Run func() (*Table, error)
}

// Figures lists every figure cmd/experiments regenerates, in its order. fast
// shrinks them for quicker, shape-preserving runs: a 512 KiB DT payload,
// EP with M = 19, Figure 16 at 1/16 scale, 64 KiB chunks in the topo and
// placement sweeps and 16 KiB in the degraded one. Otherwise each figure
// runs at its default size.
func Figures(env *Env, fast bool) []Figure {
	dtPayload, epM, figScale := 0, 22, 1.0 // a zero payload or chunk means the figure's default
	var sweepChunk, degradedChunk int64
	if fast {
		dtPayload, epM, figScale = 512*1024, 19, 1.0/16
		sweepChunk, degradedChunk = 64*core.KiB, 16*core.KiB
	}
	return []Figure{
		{"3", func() (*Table, error) { return tableOf(Figure3(env)) }},
		{"4", func() (*Table, error) { return tableOf(Figure4(env)) }},
		{"5", func() (*Table, error) { return tableOf(Figure5(env)) }},
		{"7", func() (*Table, error) { return tableOf(Figure7(env)) }},
		{"8", func() (*Table, error) { return tableOf(Figure8(env)) }},
		{"9", func() (*Table, error) { return tableOf(Figure9(env)) }},
		{"11", func() (*Table, error) { return tableOf(Figure11(env)) }},
		{"12", func() (*Table, error) { return tableOf(Figure12(env)) }},
		{"15", func() (*Table, error) { return tableOf(Figure15(env, dtPayload)) }},
		{"16", func() (*Table, error) { return tableOf(Figure16(env, figScale, 2*float64(core.GiB))) }},
		{"17", func() (*Table, error) { return tableOf(Figure17(env)) }},
		{"18", func() (*Table, error) { return tableOf(Figure18(env, epM, 64)) }},
		{"topo", func() (*Table, error) { return tableOf(TopoCollectives(env, sweepChunk)) }},
		{"placement", func() (*Table, error) { return tableOf(PlacementSweep(env, sweepChunk)) }},
		{"degraded", func() (*Table, error) { return tableOf(DegradedSweep(env, degradedChunk)) }},
	}
}

// tableOf picks the rendered table off a figure result: every result type
// carries it in a field named Table.
func tableOf[R any](r *R, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return reflect.ValueOf(r).Elem().FieldByName("Table").Interface().(*Table), nil
}
