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
	for _, flagName := range []string{"-app", "-model", "-backend"} {
		err := run(parse(t, flagName, "bogus"))
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("smpirun %s bogus: err = %v, want one naming the bad value", flagName, err)
		}
	}
}
