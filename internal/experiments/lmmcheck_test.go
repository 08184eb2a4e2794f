package experiments

import (
	"os"
	"testing"

	"smpigo/internal/lmm"
)

// TestMain arms lmm.CheckAfterSolve for the campaign suite: the golden
// fingerprint tests and figure reproductions drive millions of solver steps
// through realistic traffic, so invariant checking here is the broadest
// net for solver regressions (see the hook's doc in internal/lmm).
func TestMain(m *testing.M) {
	lmm.CheckAfterSolve = true
	os.Exit(m.Run())
}
