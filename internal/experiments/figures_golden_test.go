package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden and calibration_data.go from this build")

// TestFigureTablesGolden renders the tables of the ping-pong figures (3, 4,
// 5), the collective figures (7, 8, 9, 11, 12), the DT figures (15, 16) and
// the topo, placement and degraded sweeps, as Figures(e, true) runs them,
// under seed 0 and compares them with testdata/figures.golden line for line. The tables print every simulated
// quantity the figures report, so any change that moves one fails here;
// -update rewrites the file, which only a change that means to move a figure
// may do.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders thirteen figures; run without -short")
	}
	e := env(t)
	var got strings.Builder
	withCampaign(e, 0, 0, func() {
		for _, f := range Figures(e, true) {
			if f.ID == "17" || f.ID == "18" {
				continue // their wall-clock columns are not a function of the seed
			}
			tb, err := f.Run()
			if err != nil {
				t.Fatalf("figure %s: %v", f.ID, err)
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
