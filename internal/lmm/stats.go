package lmm

// Stats accumulates solver counters when attached to a System via the Stats
// field. Every hook in the solver is a single nil check, so a system without
// stats attached pays nothing — the zero-overhead contract the observability
// layer (internal/obs) relies on.
type Stats struct {
	// Solves and FullSolves count Solve and solveFull calls.
	Solves     uint64
	FullSolves uint64
	// DirtyConstraints and DirtyVariables sum the dirty-set sizes consumed
	// across solves; divided by Solves they give the average churn per step.
	DirtyConstraints uint64
	DirtyVariables   uint64
	// Components counts the components re-solved, each of which holds at
	// least one variable (a constraint left without variables is not
	// solved); VarsResolved the variables whose allocation was recomputed
	// (the length of each Resolved() set, summed).
	Components   uint64
	VarsResolved uint64
	// MaxComponentVars and MaxComponentCons record the largest component
	// seen, the quantity that decides whether the giant-component case is in
	// play (see ROADMAP).
	MaxComponentVars int
	MaxComponentCons int
}
