package lmm

import (
	"fmt"
	"math"
)

// Tolerances for check: relative slack on capacities and bounds, plus a
// small absolute floor so zero-capacity constraints and zero bounds are
// comparable.
const (
	checkRelTol = 1e-6
	checkAbsTol = 1e-9
)

// check validates the max-min invariants of the last solve and returns the
// first violation found, or nil:
//
//   - no Shared constraint carries more than its capacity (within epsilon);
//   - no variable exceeds a FatPipe cap or its own bound;
//   - no variable's allocation is negative, and zero-weight variables get 0;
//   - every positive-weight variable is pinned: it sits at its effective
//     bound or crosses at least one saturated Shared constraint (the Pareto
//     efficiency of bounded max-min fairness — nobody can grow without
//     shrinking someone else).
//
// check recomputes constraint usage from the attached variables' Values, so
// it is meaningful after incremental solves too (where the solver's scratch
// state only covers the components it re-solved). It is intended for tests,
// fuzzing, and post-mortem debugging, not the per-event hot path.
func (s *System) check() error {
	// Constraints are never removed, so ids densely index this table.
	usage := make([]float64, len(s.constraints))
	for _, c := range s.constraints {
		u := 0.0
		for _, v := range c.vars {
			u += v.Value
		}
		usage[c.id] = u
		if c.Policy == Shared && u > float64(c.Capacity*(1+checkRelTol))+checkAbsTol {
			return fmt.Errorf("lmm: constraint %q over capacity: usage %g > capacity %g", c.name(), u, c.Capacity)
		}
	}
	for _, v := range s.variables {
		if v.Value < -checkAbsTol {
			return fmt.Errorf("lmm: variable %q has negative allocation %g", v.Name, v.Value)
		}
		if v.Weight == 0 {
			if v.Value != 0 {
				return fmt.Errorf("lmm: zero-weight variable %q has allocation %g", v.Name, v.Value)
			}
			continue
		}
		b := v.effectiveBound()
		if !math.IsInf(b, 1) && v.Value > float64(b*(1+checkRelTol))+checkAbsTol {
			return fmt.Errorf("lmm: variable %q exceeds its bound: %g > %g", v.Name, v.Value, b)
		}
		atBound := !math.IsInf(b, 1) && v.Value >= float64(b*(1-checkRelTol))-checkAbsTol
		saturated := false
		for _, c := range v.cons {
			if c.Policy == Shared && usage[c.id] >= float64(c.Capacity*(1-checkRelTol))-checkAbsTol {
				saturated = true
				break
			}
		}
		if !atBound && !saturated {
			return fmt.Errorf("lmm: variable %q is not pinned: allocation %g below bound %g with no saturated constraint",
				v.Name, v.Value, b)
		}
	}
	return nil
}
