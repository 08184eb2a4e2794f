// Package experiments reproduces the figures of the paper's evaluation
// (Section 7) and runs scenario grids (GridSpec) beyond them, all as
// campaigns. The collective figures are short lists of GridSpecs whose
// reducers read the campaign back by position; the ping-pong, DT and EP
// figures still build their jobs directly. Each figure (see Figures) returns
// a Table whose rows match the series the paper plots and whose notes carry
// the error summaries quoted in the text, plus the Claims the paper makes
// about those numbers, decided on the same floats the table prints.
// cmd/experiments, smpigod and the
// repository's benchmark suite are thin wrappers around this package.
package experiments

import (
	"fmt"
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

// add appends a row; values are formatted with %v.
func (t *Table) add(cells ...any) {
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

// note appends a formatted note line.
func (t *Table) note(format string, args ...any) {
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

// Claim is one checkable statement a figure makes about its own numbers
// (piece-wise beats the affine models, folding shrinks the footprint, ...):
// the values it was decided on, taken from the floats the figure writes
// into its table, and whether it holds.
type Claim struct {
	Name   string
	Values []float64
	Holds  bool
}

func claim(name string, holds bool, values ...float64) Claim {
	return Claim{Name: name, Values: values, Holds: holds}
}

// Figure is one figure or sweep of the evaluation, as cmd/experiments -fig
// names it.
type Figure struct {
	ID  string
	Run func() (*Table, []Claim, error)
}

// Figures lists every figure cmd/experiments regenerates, in its order. fast
// shrinks them for quicker, shape-preserving runs: a 512 KiB DT payload
// instead of each class's own, EP with M = 19 instead of 22, Figure 16 at
// 1/16 scale, 64 KiB chunks instead of 256 KiB in the topo and placement
// sweeps and 16 KiB instead of 64 KiB in the degraded one.
func Figures(env *Env, fast bool) []Figure {
	dtPayload, epM, figScale := 0, 22, 1.0
	sweepChunk, degradedChunk := 256*core.KiB, 64*core.KiB
	if fast {
		dtPayload, epM, figScale = 512*1024, 19, 1.0/16
		sweepChunk, degradedChunk = 64*core.KiB, 16*core.KiB
	}
	return []Figure{
		{"3", func() (*Table, []Claim, error) { return figure3(env) }},
		{"4", func() (*Table, []Claim, error) { return figure4(env) }},
		{"5", func() (*Table, []Claim, error) { return figure5(env) }},
		{"7", func() (*Table, []Claim, error) { return figure7(env) }},
		{"8", func() (*Table, []Claim, error) { return figure8(env) }},
		{"9", func() (*Table, []Claim, error) { return figure9(env) }},
		{"11", func() (*Table, []Claim, error) { return figure11(env) }},
		{"12", func() (*Table, []Claim, error) { return figure12(env) }},
		{"15", func() (*Table, []Claim, error) { return figure15(env, dtPayload) }},
		{"16", func() (*Table, []Claim, error) { return figure16(env, figScale) }},
		{"17", func() (*Table, []Claim, error) { return figure17(env) }},
		{"18", func() (*Table, []Claim, error) { return figure18(env, epM, 64) }},
		{"topo", func() (*Table, []Claim, error) { return topoCollectives(env, sweepChunk) }},
		{"placement", func() (*Table, []Claim, error) { return placementSweep(env, sweepChunk) }},
		{"degraded", func() (*Table, []Claim, error) { return degradedSweep(env, degradedChunk) }},
	}
}
