package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"smpigo/internal/experiments"
)

// TestUnknownFigureIsAnError: every -fig ID must name a figure. One that
// names none fails the command, listing the valid IDs, before any figure
// runs, even when other IDs in the list are valid.
func TestUnknownFigureIsAnError(t *testing.T) {
	printed := captureStdout(t, func() {
		for _, fig := range []string{"bogus", "3,bogus", "bogus,3", "topo, 99"} {
			err := runFigures([]string{"-fig", fig, "-fast"})
			if err == nil || !strings.Contains(err.Error(), "unknown figure") || !strings.Contains(err.Error(), "3, 4, 5") {
				t.Errorf("-fig %q: got %v, want an unknown-figure error listing the valid IDs", fig, err)
			}
		}
	})
	if printed != "" {
		t.Errorf("a figure ran before the unknown ID was rejected:\n%s", printed)
	}
}

// TestFailingClaimFailsTheCommand: every claim prints under its table, in
// text and in JSON, and a failing one fails the command after every
// figure has printed, naming the figure and the claim.
func TestFailingClaimFailsTheCommand(t *testing.T) {
	figure := func(id string, holds bool) experiments.Figure {
		return experiments.Figure{ID: id, Run: func() (*experiments.Table, []experiments.Claim, error) {
			tb := &experiments.Table{Title: "Figure " + id, Header: []string{"x"}, Rows: [][]string{{"1"}}}
			return tb, []experiments.Claim{{Name: "x is one", Values: []float64{1, 0.5}, Holds: holds}}, nil
		}}
	}
	figures := []experiments.Figure{figure("a", false), figure("b", true)}
	for _, jsonOut := range []bool{false, true} {
		var err error
		printed := captureStdout(t, func() { err = printFigures(figures, jsonOut) })
		if err == nil || !strings.Contains(err.Error(), "figure a: x is one") || strings.Contains(err.Error(), "figure b") {
			t.Errorf("json=%v: got %v, want an error naming figure a's claim alone", jsonOut, err)
		}
		if !jsonOut {
			for _, want := range []string{"== Figure a ==", "# claim FAILS: x is one [1 0.5]", "== Figure b ==", "# claim holds: x is one [1 0.5]"} {
				if !strings.Contains(printed, want) {
					t.Errorf("text output lacks %q:\n%s", want, printed)
				}
			}
			continue
		}
		var tables []struct {
			Title  string
			Claims []experiments.Claim
		}
		if err := json.Unmarshal([]byte(printed), &tables); err != nil {
			t.Fatalf("JSON output: %v\n%s", err, printed)
		}
		if len(tables) != 2 || tables[0].Title != "Figure a" || len(tables[0].Claims) != 1 || tables[0].Claims[0].Holds || !tables[1].Claims[0].Holds {
			t.Errorf("JSON tables do not carry their claims: %+v", tables)
		}
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	fn()
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}
