package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"smpigo/internal/core"
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

// TestRunCampaign runs the campaign subcommand as typed, in text and in
// JSON: both print the fingerprint GridCampaignOpts gives the spec the
// arguments spell, in canonical form, which is the campaign smpigod serves
// for it (internal/service TestServedFingerprintMatchesBatch). The rows are
// a topology axis with a shape-free preset mix, ring as a sweepable op,
// models crossed with topologies, a respelled spec, and Figure 11's grid.
func TestRunCampaign(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	surf, size := []string{"surf"}, []int64{64 * core.KiB}
	for _, tc := range []struct {
		args string
		spec experiments.GridSpec
		seed uint64
	}{
		{"-op pingpong -sizes 64KiB -topologies griffon,fattree16,torus16 -procs 2 -seed 1",
			experiments.GridSpec{Op: "pingpong", Sizes: size, Backends: surf, Topologies: []string{"griffon", "fattree16", "torus16"}}, 1},
		{"-op ring -procs 8 -sizes 64KiB -topologies torus16",
			experiments.GridSpec{Op: "ring", Procs: []int{8}, Sizes: size, Backends: surf, Topologies: []string{"torus16"}}, 0},
		{"-op pingpong -sizes 64KiB -models bestfit,piecewise -backends surf -topologies fattree16,torus16 -seed 11",
			experiments.GridSpec{Op: "pingpong", Sizes: size, Models: []string{"bestfit", "piecewise"}, Backends: surf, Topologies: []string{"fattree16", "torus16"}}, 11},
		{"-op PingPong -sizes 64KiB -backends SURF -topologies FatTree16 -seed 11",
			experiments.GridSpec{Op: "pingpong", Sizes: size, Backends: surf, Topologies: []string{"fattree16"}}, 11},
		{"-op alltoall -procs 16 -sizes 4MiB -backends surf,nocontention,openmpi",
			experiments.GridSpec{Op: "alltoall", Procs: []int{16}, Sizes: []int64{4 * core.MiB}, Backends: []string{"surf", "nocontention", "openmpi"}}, 0},
	} {
		if testing.Short() && tc.spec.Op == "alltoall" {
			continue // a 16-process 4 MiB all-to-all, three times
		}
		spec, err := tc.spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := env.GridCampaignOpts(spec, experiments.CampaignOptions{Seed: &tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		want := sum.Fingerprint()

		args := strings.Fields(tc.args)
		text := captureStdout(t, func() { err = runCampaign(args) })
		if err != nil || !strings.Contains(text, "# fingerprint "+want) {
			t.Errorf("campaign %s: err %v, want fingerprint %s in\n%s", tc.args, err, want, text)
		}
		printed := captureStdout(t, func() { err = runCampaign(append(args, "-json")) })
		var out struct{ Fingerprint string }
		if jerr := json.Unmarshal([]byte(printed), &out); err != nil || jerr != nil || out.Fingerprint != want {
			t.Errorf("campaign %s -json: err %v, fingerprint %q (%v), want %s", tc.args, err, out.Fingerprint, jerr, want)
		}
	}
}

// TestRunCampaignRefuses: an unknown collective variant, a dynamics
// schedule on the contention-blind back-end, and a shape whose host count
// overflows int are refused before anything runs: the error names what is
// wanted or required, nothing is printed, and no job panicked or was
// fingerprinted.
func TestRunCampaignRefuses(t *testing.T) {
	for _, args := range [][]string{
		{"-op", "scatter", "-procs", "4", "-sizes", "1KiB", "-collectives", "scatter=bogus"},
		{"-op", "alltoall", "-procs", "4", "-sizes", "1KiB", "-backends", "nocontention", "-dynamics", "@0s link griffon-* scale 0.5"},
		{"-op", "pingpong", "-sizes", "1KiB", "-topologies", "torus:4294967296x4294967296"},
	} {
		var err error
		printed := captureStdout(t, func() { err = runCampaign(args) })
		if err == nil || !strings.Contains(err.Error(), "want") && !strings.Contains(err.Error(), "require") ||
			strings.Contains(err.Error(), "panicked") || strings.Contains(err.Error(), "fingerprint") || printed != "" {
			t.Errorf("campaign %q: err %v, printed %q; want a refusal naming what it wants, before anything runs", args, err, printed)
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
