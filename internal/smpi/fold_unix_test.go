//go:build unix

package smpi

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

// TestOversizedFoldIsAnError: a folded block the OS will not map fails the
// run with an error naming the block's key and size and unwrapping to the
// OS error, not with a rank's panic and not by killing the process. A
// pebibyte is beyond every unix user address space, so no overcommit
// setting maps it.
func TestOversizedFoldIsAnError(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) {
		r.SharedMalloc("huge", 1<<50)
	})
	if err == nil {
		t.Fatal("a 1 PiB folded block mapped")
	}
	if msg := err.Error(); !strings.Contains(msg, `SharedMalloc("huge", 1125899906842624 bytes)`) || strings.Contains(msg, "panicked") {
		t.Errorf("want an error naming the block and its size, not a panic: %v", err)
	}
	if !errors.Is(err, syscall.ENOMEM) {
		t.Errorf("error %v does not unwrap to ENOMEM", err)
	}
}
