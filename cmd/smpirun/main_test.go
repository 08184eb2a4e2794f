package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
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
	for _, args := range [][]string{
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
	} {
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

var wallLine = regexp.MustCompile(`(?m)^(simulation wall    : ).*$`)

// TestGoldenOutput pins what smpirun prints for the invocations CI's
// topology-smoke job runs (the wall-clock line masked). The goldens were
// generated by the smpirun of the commit before the app switch, the
// back-end switch and the placement closure moved into package experiments,
// so they prove that move changed no output.
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
