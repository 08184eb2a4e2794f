package lmm

import (
	"fmt"
	"math"
	"slices"
)

// fixTol is the relative tolerance deciding that a live share or bound is
// reached at the current fair rate (kept identical to the historical full
// solver so allocations are unchanged).
const fixTol = 1e-12

// overTol is the relative over-subscription slack tolerated while charging
// fixed allocations against a constraint. Progressive filling never charges
// more than the remaining capacity except for floating-point drift; anything
// beyond this tolerance is a solver bug and fails loudly instead of being
// silently clamped away.
const overTol = 1e-9

// Solve computes the bounded max-min fair allocation for every component of
// the system touched since the previous Solve, storing each variable's
// share in its Value field. Variables in untouched components keep their
// previous allocation bit-for-bit.
//
// A component is a set of variables transitively coupled through Shared
// constraints. FatPipe constraints never couple variables (they only cap
// each crossing variable individually), so they do not merge components.
//
// Solve walks the dirty set — constraints first, then variables — and for
// each seed not yet visited collects its component, sorts the members by
// creation serial, fills it, and appends it to Resolved(). A dirty Shared
// constraint with no variable left seeds nothing.
func (s *System) Solve() {
	s.epoch++
	s.resolved = s.resolved[:0]
	dirtyCons, dirtyVars := s.dirtyCons, s.dirtyVars
	if s.Stats != nil {
		s.Stats.Solves++
		s.Stats.DirtyConstraints += uint64(len(dirtyCons))
		s.Stats.DirtyVariables += uint64(len(dirtyVars))
	}
	for _, c := range dirtyCons {
		c.dirty = false
		s.solveSeedCons(c)
	}
	for _, v := range dirtyVars {
		v.dirty = false
		if v.sysIdx >= 0 {
			s.solveSeedVar(v)
		}
	}
	s.dirtyCons = dirtyCons[:0]
	s.dirtyVars = dirtyVars[:0]
	if CheckAfterSolve {
		s.mustCheck()
	}
}

// solveFull re-solves every component from scratch, ignoring the dirty set.
// It produces exactly the same allocations as incremental solving (it runs
// the same per-component routine over the same partitions); it exists as
// the reference path for equivalence tests.
func (s *System) solveFull() {
	if s.Stats != nil {
		s.Stats.FullSolves++
	}
	for _, c := range s.dirtyCons {
		c.dirty = false
	}
	for _, v := range s.dirtyVars {
		v.dirty = false
	}
	s.dirtyCons = s.dirtyCons[:0]
	s.dirtyVars = s.dirtyVars[:0]
	s.epoch++
	s.resolved = s.resolved[:0]
	for _, c := range s.constraints {
		s.solveSeedCons(c)
	}
	for _, v := range s.variables {
		s.solveSeedVar(v)
	}
	if CheckAfterSolve {
		s.mustCheck()
	}
}

// Resolved returns the variables whose allocations the last Solve (or
// solveFull) recomputed: the members of the components the dirty set
// touched. Callers propagating allocations into their own state (flow
// rates, task rates) can walk this list instead of every live variable,
// keeping the per-event cost proportional to the churn.
//
// Ordering contract: components appear in discovery order (the order the
// dirty set seeded them), and within a component members appear in creation
// order. surf's lazy drain relies on this order being a pure function of the
// mutation history — it decides the order completions are re-keyed in the
// action heap, hence the tie order of same-date completions. The slice is valid until the next mutation or solve.
func (s *System) Resolved() []*Variable { return s.resolved }

// solveSeedCons solves the component(s) reachable from a seed constraint. A
// Shared constraint anchors one component; a FatPipe constraint only caps
// its variables, so each of its still-unvisited variables seeds its own
// component (they may well be independent of each other).
//
// A Shared constraint with no variable (a link whose last flow has left) is
// no component: solving it would fix nothing and resolve nothing, and the
// fill scratch it leaves stale is reset before any later solve reads it.
func (s *System) solveSeedCons(c *Constraint) {
	if c.Policy == Shared {
		if c.mark != s.epoch && len(c.vars) > 0 {
			s.stackC = append(s.stackC, c)
			c.mark = s.epoch
			s.solvePending()
		}
		return
	}
	for _, v := range c.vars {
		s.solveSeedVar(v)
	}
}

// solveSeedVar solves the component containing v, unless it was already
// solved this epoch.
func (s *System) solveSeedVar(v *Variable) {
	if v.mark != s.epoch {
		s.stackV = append(s.stackV, v)
		v.mark = s.epoch
		s.solvePending()
	}
}

// solvePending drains the visit stacks into one connected component —
// expanding variables to their Shared constraints and Shared constraints to
// their variables — then solves it and appends it to Resolved(). Members are
// sorted by creation serial first, so the solve depends only on the
// component's membership, never on traversal order or on which mutation
// dirtied it.
func (s *System) solvePending() {
	cons, vars := s.compCons[:0], s.compVars[:0]
	for len(s.stackC)+len(s.stackV) > 0 {
		if n := len(s.stackV); n > 0 {
			v := s.stackV[n-1]
			s.stackV = s.stackV[:n-1]
			vars = append(vars, v)
			for _, c := range v.cons {
				if c.Policy == Shared && c.mark != s.epoch {
					c.mark = s.epoch
					s.stackC = append(s.stackC, c)
				}
			}
			continue
		}
		n := len(s.stackC)
		c := s.stackC[n-1]
		s.stackC = s.stackC[:n-1]
		cons = append(cons, c)
		for _, v := range c.vars {
			if v.mark != s.epoch {
				v.mark = s.epoch
				s.stackV = append(s.stackV, v)
			}
		}
	}
	slices.SortFunc(cons, func(a, b *Constraint) int { return a.id - b.id })
	slices.SortFunc(vars, func(a, b *Variable) int { return a.id - b.id })
	s.compCons, s.compVars = cons, vars
	if st := s.Stats; st != nil {
		st.Components++
		st.VarsResolved += uint64(len(vars))
		if len(vars) > st.MaxComponentVars {
			st.MaxComponentVars = len(vars)
		}
		if len(cons) > st.MaxComponentCons {
			st.MaxComponentCons = len(cons)
		}
	}
	s.solveComponent(cons, vars)
	s.resolved = append(s.resolved, vars...)
}

// effectiveBound is the variable's own bound tightened by the FatPipe caps
// it crosses.
func (v *Variable) effectiveBound() float64 {
	b := v.Bound
	for _, c := range v.cons {
		if c.Policy == FatPipe && c.Capacity < b {
			b = c.Capacity
		}
	}
	return b
}

// charge subtracts a freshly fixed allocation from the Shared constraints
// the variable crosses, with epsilon-tolerant accounting: floating-point
// drift may push remaining marginally below zero (then it is floored), but
// a materially negative remainder means the solver over-committed a
// capacity and is reported loudly instead of being masked.
func charge(v *Variable) {
	for _, c := range v.cons {
		if c.Policy != Shared {
			continue
		}
		c.remaining -= v.Value
		if c.remaining < 0 {
			if c.remaining < -overTol*(c.Capacity+1) {
				panic(fmt.Sprintf("lmm: constraint %q over capacity by %g during solve (capacity %g)",
					c.name(), -c.remaining, c.Capacity))
			}
			c.remaining = 0
		}
	}
}

// solveComponent runs progressive filling restricted to one component:
// at each round the tightest shared constraint (or variable bound)
// determines a fair rate r; variables limited by it are fixed, their usage
// is subtracted, and the process repeats. cons holds only the component's
// Shared constraints; FatPipe caps enter through effectiveBound.
func (s *System) solveComponent(cons []*Constraint, vars []*Variable) {
	for _, v := range vars {
		v.fixed = false
		v.Value = 0
		if v.Weight == 0 {
			v.fixed = true
		}
	}
	actVars := s.actVars[:0]
	for _, v := range vars {
		if !v.fixed {
			actVars = append(actVars, v)
		}
	}
	actCons := s.actCons[:0]
	for _, c := range cons {
		c.remaining = c.Capacity
		c.liveVars = c.liveVars[:0]
		for _, v := range c.vars {
			if !v.fixed {
				c.liveVars = append(c.liveVars, v)
			}
		}
		actCons = append(actCons, c)
	}
	actCons, actVars = fill(actCons, actVars)
	s.actCons, s.actVars = actCons[:0], actVars[:0]
}

// fill is the progressive-filling round loop. It expects actVars to hold
// the unfixed variables and every constraint in actCons to carry its
// remaining capacity and its liveVars compacted to the unfixed members.
//
// Active lists keep the rounds cheap: each constraint carries a compacted
// list of its still-unfixed variables, constraints whose variables are all
// fixed drop out of the round loop entirely, and both compactions preserve
// relative order. Every floating-point operation therefore happens in
// exactly the order the naive full scan would produce (unfixed members in
// creation/attach order), so shrinking the scans never changes a bit of the
// result — it only stops revisiting finished work.
func fill(actCons []*Constraint, actVars []*Variable) ([]*Constraint, []*Variable) {
	unfixed := len(actVars)
	for unfixed > 0 {
		// Recompute unfixed weight per shared constraint, compacting each
		// active list and retiring constraints with no unfixed variables
		// left (they can never reactivate: variables only ever get fixed).
		// Each surviving constraint offers its fair share as a rate
		// candidate.
		r := math.Inf(1)
		nc := 0
		for _, c := range actCons {
			nv := 0
			weight := 0.0
			for _, v := range c.liveVars {
				if !v.fixed {
					c.liveVars[nv] = v
					nv++
					weight += v.Weight
				}
			}
			c.liveVars = c.liveVars[:nv]
			if weight > 0 {
				actCons[nc] = c
				nc++
				if share := c.remaining / weight; share < r {
					r = share
				}
			}
		}
		actCons = actCons[:nc]
		// Candidate from variable bounds (rate = bound/weight), compacting
		// the unfixed-variable list on the way.
		nv := 0
		for _, v := range actVars {
			if v.fixed {
				continue
			}
			actVars[nv] = v
			nv++
			if b := v.effectiveBound(); !math.IsInf(b, 1) {
				if br := b / v.Weight; br < r {
					r = br
				}
			}
		}
		actVars = actVars[:nv]

		if math.IsInf(r, 1) {
			// No shared constraint and no bound limits the remaining
			// variables; they are effectively unbounded. Flag loudly
			// rather than looping forever.
			panic("lmm: unbounded variables with no active constraint")
		}

		progressed := false
		// Fix variables whose bound is reached at rate r.
		for _, v := range actVars {
			if b := v.effectiveBound(); !math.IsInf(b, 1) && b <= r*v.Weight*(1+fixTol) {
				v.Value = b
				v.fixed = true
				unfixed--
				progressed = true
				charge(v)
			}
		}
		// Fix variables on saturated constraints. Weights are recomputed
		// live because fixes earlier in this round (at bounds, or on other
		// constraints) change both remaining capacity and unfixed weight;
		// the progressive-filling invariant guarantees live shares stay
		// >= r, with equality exactly on saturated constraints.
		for _, c := range actCons {
			live := 0.0
			for _, v := range c.liveVars {
				if !v.fixed {
					live += v.Weight
				}
			}
			if live == 0 {
				continue
			}
			share := c.remaining / live
			if share <= r*(1+fixTol) {
				for _, v := range c.liveVars {
					if v.fixed {
						continue
					}
					v.Value = r * v.Weight
					v.fixed = true
					unfixed--
					progressed = true
					charge(v)
				}
			}
		}
		if !progressed {
			panic("lmm: solver failed to make progress")
		}
	}
	return actCons, actVars
}
