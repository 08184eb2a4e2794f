package lmm

import "fmt"

// CheckAfterSolve, when true, runs System.check after every Solve and
// solveFull and panics on the first invariant violation. It exists so test
// suites of the *consumers* (surf, dynamics, campaign runs) surface solver
// bugs at the solve that caused them instead of three packages later as a
// wrong completion date. It is a test hook, not a production mode: the check
// is O(variables + constraints + attachments) per solve and allocates.
// The surf, dynamics and experiments suites set it from their TestMain;
// nothing else does.
var CheckAfterSolve bool

// mustCheck enforces the CheckAfterSolve contract.
func (s *System) mustCheck() {
	if err := s.check(); err != nil {
		panic(fmt.Sprintf("lmm: post-solve invariant violation: %v", err))
	}
}
