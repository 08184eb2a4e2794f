package surf

import (
	"os"
	"testing"

	"smpigo/internal/lmm"
)

// TestMain arms lmm.CheckAfterSolve for the whole surf suite: every solve
// either model triggers is validated against the max-min invariants at the
// solve that produced it, so a solver bug fails here as a panic with the
// violated invariant instead of three layers later as a wrong completion
// date.
func TestMain(m *testing.M) {
	lmm.CheckAfterSolve = true
	os.Exit(m.Run())
}
