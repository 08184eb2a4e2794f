package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestUnknownFigureIsAnError: every -fig ID must name a figure. One that
// names none fails the command, listing the valid IDs, before any figure
// runs, even when other IDs in the list are valid.
func TestUnknownFigureIsAnError(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()

	for _, fig := range []string{"bogus", "3,bogus", "bogus,3", "topo, 99"} {
		err := runFigures([]string{"-fig", fig, "-fast"})
		if err == nil || !strings.Contains(err.Error(), "unknown figure") || !strings.Contains(err.Error(), "3, 4, 5") {
			t.Errorf("-fig %q: got %v, want an unknown-figure error listing the valid IDs", fig, err)
		}
	}
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if printed, _ := io.ReadAll(out); len(printed) > 0 {
		t.Errorf("a figure ran before the unknown ID was rejected:\n%s", printed)
	}
}
