package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parse builds the options the command would see for the given arguments.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("smpirun", flag.ContinueOnError)
	bindFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRun(t *testing.T) {
	runs := [][]string{
		{"-app", "pingpong"},
		{"-app", "alltoall", "-np", "8", "-platform", "fattree16", "-stats"},
		{"-app", "dt", "-class", "S", "-fold"},
		{"-app", "ring", "-np", "8", "-platform", "torus16"},
		{"-app", "bcast", "-np", "8", "-backend", "mpich2"},
		{"-app", "allreduce", "-np", "8", "-chunk", "64KiB", "-platform", "FatTree16", "-backend", "emu"},
		{"-app", "scatter", "-np", "4", "-chunk", "64KiB", "-backend", " NoContention "},
		// -app, -graph and -class ignore case and padding like every name.
		{"-app", "DT", "-class", "A"},
		{"-app", "dt", "-graph", "bh", "-class", "a"},
	}
	// What platformgen -metrics writes, trailing comment and all, is a
	// platform file smpirun reads.
	for _, preset := range []string{"fattree16", "fattree64", "torus16", "torus64", "dragonfly72"} {
		runs = append(runs, []string{"-app", "pingpong", "-chunk", "64KiB", "-platform", filepath.Join("..", "platformgen", "testdata", preset+".golden")})
	}
	for _, args := range runs {
		if err := run(parse(t, args...), io.Discard); err != nil {
			t.Errorf("smpirun %s: %v", strings.Join(args, " "), err)
		}
	}
}

func TestRunRejectsUnknownValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the error must name the bad value, or the flag when the value is empty
	}{
		{[]string{"-app", "bogus"}, `"bogus" (want allreduce, alltoall, bcast, dt, ep, pingpong, ring, scatter)`},
		{[]string{"-model", "bogus"}, `"bogus"`},
		{[]string{"-backend", "bogus"}, `"bogus"`},
		{[]string{"-platform", "bogus"}, `"bogus"`},
		{[]string{"-app", "dt", "-class", ""}, "-class"},
		{[]string{"-app", "dt", "-class", "Wrong"}, `-class "Wrong": want S, W, A, B or C`},
		{[]string{"-app", "ep", "-np", "4", "-ratio", "0"}, "-ratio 0: want a sampling ratio in (0, 1]"},
		{[]string{"-app", "ep", "-np", "4", "-ratio", "-1"}, "-ratio -1: want a sampling ratio in (0, 1]"},
		{[]string{"-app", "ep", "-np", "4", "-ratio", "1.5"}, "-ratio 1.5: want a sampling ratio in (0, 1]"},
		{[]string{"-app", "ep", "-np", "4", "-ratio", "NaN"}, "-ratio NaN: want a sampling ratio in (0, 1]"},
		{[]string{"-app", "bcast", "-np", "4", "-collectives", "bcast=bogus"}, `"bogus" (want auto, binomial, flat, ring)`},
		{[]string{"-app", "alltoall", "-np", "4", "-collectives", "scatter=Ring"}, `"Ring" (want auto, binomial, flat)`},
		{[]string{"-app", "alltoall", "-np", "4", "-chunk", "-5"}, `"-5": negative`},
	} {
		var out bytes.Buffer
		err := run(parse(t, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "panicked") {
			t.Errorf("smpirun %s: err = %v, want one naming %s", strings.Join(tc.args, " "), err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("smpirun %s printed %q before refusing", strings.Join(tc.args, " "), out.String())
		}
	}
}

// TestHotSpotReport runs a placed alltoall on the oversubscribed fattree64
// with -stats and -timeline. rr placement pushes every exchange through the
// top level and D-mod-k routing converges them there, so the ten hottest
// links are all spine ("-l3-") links. Degrading the spine cannot move the
// byte ranking (routes are static), so the schedule also injects background
// flows on two same-leaf pairs: their edge ("-l1-") links out-byte part of
// the spine. Either way no link carries more than its capacity, and the
// timeline file is written.
func TestHotSpotReport(t *testing.T) {
	const args = "-app alltoall -np 32 -chunk 256KiB -platform fattree64 -placement rr -collectives auto -model ideal -stats"
	for _, tc := range []struct {
		name, dynamics string
		allSpine       bool
	}{
		{"spine dominance", "", true},
		{"degraded spine", "@0s link fattree64-l3-* scale 0.5; @0s flow 0->1 4MiB every 10ms x10; @0s flow 2->3 4MiB every 10ms x10", false},
	} {
		o := parse(t, strings.Fields(args)...)
		o.dynamics = tc.dynamics
		o.timeline = filepath.Join(t.TempDir(), "timeline.json")
		var out bytes.Buffer
		if err := run(o, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		report := out.String()
		if !strings.Contains(report, "kernel counters") {
			t.Errorf("%s: no kernel counters in\n%s", tc.name, report)
		}
		spine := strings.Count(report, "fattree64-l3-")
		if edge := strings.Contains(report, "fattree64-l1-"); tc.allSpine && spine != 10 || !tc.allSpine && (spine >= 10 || !edge) {
			t.Errorf("%s: %d spine hot spots, edge links among them: %v\n%s", tc.name, spine, edge, report)
		}
		for _, line := range strings.Split(report, "\n") {
			if !strings.Contains(line, " util ") {
				continue
			}
			fields := strings.Fields(line)
			util, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], "%"), 64)
			if err != nil || util > 100.05 {
				t.Errorf("%s: over capacity or unreadable: %q", tc.name, line)
			}
		}
		timeline, err := os.ReadFile(o.timeline)
		if err != nil || !bytes.Contains(timeline, []byte("bucket_width")) {
			t.Errorf("%s: timeline %q (%v) holds no bucket_width", tc.name, timeline, err)
		}
	}
}

var wallLine = regexp.MustCompile(`(?m)^(simulation wall    : ).*$`)

// TestGoldenOutput pins what smpirun prints for the platform presets, shape
// strings, placement and collective selection, -stats, DT and EP (the
// wall-clock line masked). The goldens were generated by the smpirun of the
// commit before the app switch, the back-end switch and the placement
// closure moved into package experiments, so they prove that move changed
// no output.
func TestGoldenOutput(t *testing.T) {
	cases := map[string]string{
		"alltoall_dragonfly_shape": "-app alltoall -np 8 -chunk 64KiB -platform dragonfly:3x2x2",
		"alltoall_torus16_rr_auto": "-app alltoall -np 16 -chunk 64KiB -platform torus16 -placement rr -collectives auto -seed 2",
		"alltoall_fattree64_stats": "-app alltoall -np 32 -chunk 256KiB -platform fattree64 -placement rr -collectives auto -model ideal -stats",
		"dt_S_fold":                "-app dt -class S -fold",
		"ep_quarter":               "-app ep -np 4 -ratio 0.25",
	}
	for _, preset := range []string{"fattree16", "fattree64", "torus16", "torus64", "dragonfly72"} {
		cases["pingpong_"+preset] = "-app pingpong -chunk 64KiB -platform " + preset
	}
	for name, args := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(parse(t, strings.Fields(args)...), &out); err != nil {
			t.Errorf("smpirun %s: %v", args, err)
			continue
		}
		if got := wallLine.ReplaceAll(out.Bytes(), []byte("${1}<masked>")); !bytes.Equal(got, want) {
			t.Errorf("smpirun %s printed\n%s\nwant\n%s", args, got, want)
		}
	}
}
