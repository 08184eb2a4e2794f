package experiments

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"smpigo/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden and calibration_data.go from this build")

// TestFigureTablesGolden renders the tables of the ping-pong figures (3, 4,
// 5), the collective figures (7, 8, 9, 11, 12), the DT figures (15, 16) and
// the topo, placement and degraded sweeps, at the -fast settings of
// cmd/experiments, under seed 0 and compares them with
// testdata/figures.golden line for line. The tables print every simulated
// quantity the figures report, so any change that moves one fails here;
// -update rewrites the file, which only a change that means to move a figure
// may do.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders thirteen figures; run without -short")
	}
	e := env(t)
	figures := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"3", func() (*Table, error) { r, err := Figure3(e); return tableOf(r, err) }},
		{"4", func() (*Table, error) { r, err := Figure4(e); return tableOf(r, err) }},
		{"5", func() (*Table, error) { r, err := Figure5(e); return tableOf(r, err) }},
		{"7", func() (*Table, error) { r, err := Figure7(e); return tableOf(r, err) }},
		{"8", func() (*Table, error) { r, err := Figure8(e); return tableOf(r, err) }},
		{"9", func() (*Table, error) { r, err := Figure9(e); return tableOf(r, err) }},
		{"11", func() (*Table, error) { r, err := Figure11(e); return tableOf(r, err) }},
		{"12", func() (*Table, error) { r, err := Figure12(e); return tableOf(r, err) }},
		{"15", func() (*Table, error) { r, err := Figure15(e, 512*1024); return tableOf(r, err) }},
		{"16", func() (*Table, error) { r, err := Figure16(e, 1.0/16, 2*float64(core.GiB)); return tableOf(r, err) }},
		{"topo", func() (*Table, error) { r, err := TopoCollectives(e, 64*core.KiB); return tableOf(r, err) }},
		{"placement", func() (*Table, error) { r, err := PlacementSweep(e, 64*core.KiB); return tableOf(r, err) }},
		{"degraded", func() (*Table, error) { r, err := DegradedSweep(e, 16*core.KiB); return tableOf(r, err) }},
	}
	var got strings.Builder
	withCampaign(e, 0, 0, func() {
		for _, f := range figures {
			tb, err := f.run()
			if err != nil {
				t.Fatalf("figure %s: %v", f.name, err)
			}
			fmt.Fprintf(&got, "%s\n", tb)
		}
	})

	const path = "testdata/figures.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, this build renders %d:\n%s", len(wantLines), len(gotLines), got.String())
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
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
