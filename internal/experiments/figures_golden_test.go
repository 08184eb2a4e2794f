package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden, testdata/claims.golden, testdata/counts.golden and calibration_data.go from this build")

// TestFigures runs every figure once, as cmd/experiments -fast runs them,
// under seed 0: each must make at least one claim, and every claim must
// hold. A full run also compares the tables of every figure but 17 and 18
// (their wall-clock columns are not a function of the seed) with
// testdata/figures.golden, and every claim — name, verdict and the values
// it was decided on — with testdata/claims.golden. The tables print every
// simulated quantity the figures report, so any change that moves one fails
// here; -update rewrites both files, which only a change that means to move
// a figure may do. Under -short the slow figures skip and no golden is
// compared.
func TestFigures(t *testing.T) {
	slow := map[string]bool{"11": true, "12": true, "17": true, "topo": true, "placement": true, "degraded": true}
	e := env(t)
	figures := Figures(e, true, CampaignOptions{})
	var tables, claims strings.Builder
	ran := 0
	for _, f := range figures {
		t.Run(f.ID, func(t *testing.T) {
			if testing.Short() && slow[f.ID] {
				t.Skip("slow figure; run without -short")
			}
			tb, cl, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(cl) == 0 {
				t.Error("figure makes no claim")
			}
			for _, c := range cl {
				if !c.Holds {
					t.Errorf("claim fails: %s %v", c.Name, c.Values)
				}
				fmt.Fprintf(&claims, "%s: %s\n", f.ID, c)
			}
			if f.ID != "17" && f.ID != "18" {
				fmt.Fprintf(&tables, "%s\n", tb)
			}
			ran++
		})
	}
	if ran < len(figures) {
		return // a figure was skipped, filtered out or failed: the goldens would not match
	}
	compareGolden(t, "testdata/figures.golden", tables.String())
	compareGolden(t, "testdata/claims.golden", claims.String())
}

// compareGolden compares got with the file at path line for line, or
// rewrites the file under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d golden lines, this build renders %d:\n%s", path, len(wantLines), len(gotLines), got)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}
