package main

import (
	"os"
	"testing"
)

// TestMainRuns runs the example with its output discarded: the output
// carries wall times, so only that it finishes is checked (a log.Fatal
// fails the test binary).
func TestMainRuns(t *testing.T) {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()
	main()
}
