package dynamics

import (
	"os"
	"testing"

	"smpigo/internal/lmm"
)

// TestMain arms lmm.CheckAfterSolve for the dynamics suite: capacity
// retuning and flow injection are exactly the mutations that could leave a
// component in an invalid allocation, so every solve they trigger is
// validated at the source (see the hook's doc in internal/lmm).
func TestMain(m *testing.M) {
	lmm.CheckAfterSolve = true
	os.Exit(m.Run())
}
