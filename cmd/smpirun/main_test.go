package main

import (
	"flag"
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
	} {
		if err := run(parse(t, args...)); err != nil {
			t.Errorf("smpirun %s: %v", strings.Join(args, " "), err)
		}
	}
}

func TestRunRejectsUnknownValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the error must name the bad value, or the flag when the value is empty
	}{
		{[]string{"-app", "bogus"}, `"bogus"`},
		{[]string{"-model", "bogus"}, `"bogus"`},
		{[]string{"-backend", "bogus"}, `"bogus"`},
		{[]string{"-platform", "bogus"}, `"bogus"`},
		{[]string{"-app", "dt", "-class", ""}, "-class"},
	} {
		err := run(parse(t, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("smpirun %s: err = %v, want one naming %s", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}
