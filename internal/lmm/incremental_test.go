package lmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// churnRecord remembers how a live variable was created so the system can be
// rebuilt from scratch for equivalence checking.
type churnRecord struct {
	v      *Variable
	weight float64
	bound  float64
	route  []int // constraint indices, in attach order
	// twin is the same variable in fuzzChurn's system without recycling.
	twin *Variable
}

// TestIncrementalMatchesFromScratch drives a randomized add/remove churn
// over a random constraint graph and asserts, after every incremental
// Solve, that
//
//  1. System.check() invariants hold,
//  2. an in-place solveFull reproduces the incremental allocations
//     bit-for-bit (the dirty set lost nothing), and
//  3. a from-scratch system rebuilt with only the surviving variables
//     solves to bit-identical allocations (long-lived registry state —
//     swap-removed slots, ordered constraint lists — is canonical).
func TestIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		nCons := 3 + rng.Intn(10)
		type consSpec struct {
			capacity float64
			policy   SharingPolicy
		}
		specs := make([]consSpec, nCons)
		s := New()
		cons := make([]*Constraint, nCons)
		for i := range cons {
			specs[i] = consSpec{capacity: float64(rng.Intn(200)) / 2, policy: Shared}
			if rng.Intn(5) == 0 {
				specs[i].policy = FatPipe
			}
			cons[i] = s.NewConstraint("c", specs[i].capacity, specs[i].policy)
		}

		var live []churnRecord
		addVar := func() {
			weight := []float64{0, 0.5, 1, 2}[rng.Intn(4)]
			bound := math.Inf(1)
			if rng.Intn(3) == 0 {
				bound = float64(rng.Intn(120)) / 4
			}
			hops := 1 + rng.Intn(3)
			route := make([]int, 0, hops)
			seen := make(map[int]bool)
			for len(route) < hops {
				h := rng.Intn(nCons)
				if !seen[h] {
					seen[h] = true
					route = append(route, h)
				}
			}
			v := s.NewVariable("v", weight, bound)
			for _, h := range route {
				s.Attach(v, cons[h])
			}
			live = append(live, churnRecord{v: v, weight: weight, bound: bound, route: route})
		}

		for i := 0; i < 12; i++ {
			addVar()
		}
		steps := 60
		for step := 0; step < steps; step++ {
			if len(live) > 0 && (len(live) > 25 || rng.Intn(2) == 0) {
				i := rng.Intn(len(live))
				s.RemoveVariable(live[i].v)
				live = append(live[:i], live[i+1:]...)
			} else {
				addVar()
			}
			s.Solve()
			if err := s.check(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if step%7 != 0 {
				continue
			}
			// Bitwise reference 1: from-scratch rebuild of the survivors.
			ref := New()
			refCons := make([]*Constraint, nCons)
			for i, cs := range specs {
				refCons[i] = ref.NewConstraint("c", cs.capacity, cs.policy)
			}
			refVars := make([]*Variable, len(live))
			for i, rec := range live {
				refVars[i] = ref.NewVariable("v", rec.weight, rec.bound)
				for _, h := range rec.route {
					ref.Attach(refVars[i], refCons[h])
				}
			}
			ref.solveFull()
			for i, rec := range live {
				if rec.v.Value != refVars[i].Value {
					t.Fatalf("trial %d step %d: incremental value %v != from-scratch %v (var %d)",
						trial, step, rec.v.Value, refVars[i].Value, i)
				}
			}
			// Bitwise reference 2: in-place full re-solve.
			got := make([]float64, len(live))
			for i, rec := range live {
				got[i] = rec.v.Value
			}
			s.solveFull()
			for i, rec := range live {
				if rec.v.Value != got[i] {
					t.Fatalf("trial %d step %d: solveFull value %v != incremental %v (var %d)",
						trial, step, rec.v.Value, got[i], i)
				}
			}
		}
	}
}

// TestResolvedContract pins the Resolved() ordering surf's event path is
// built on: components in dirty-set discovery order (dirty constraints before
// dirty variables), members in creation order within a component, untouched
// components absent and bit-identical, and a dirty FatPipe constraint seeding
// each crossing variable as its own component.
func TestResolvedContract(t *testing.T) {
	s := New()
	// Three disjoint chains v0–a–v1–b–v2, their variables created
	// interleaved across the three so creation order is not contiguous.
	type chain struct {
		a, b *Constraint
		vars []*Variable
	}
	comps := make([]chain, 3)
	for i := range comps {
		comps[i].a = s.NewConstraint("a", 10+float64(i), Shared)
		comps[i].b = s.NewConstraint("b", 7+float64(i), Shared)
	}
	for j := 0; j < 3; j++ {
		for i := range comps {
			v := s.NewVariable("v", 1+float64(j), math.Inf(1))
			if j <= 1 {
				s.Attach(v, comps[i].a)
			}
			if j >= 1 {
				s.Attach(v, comps[i].b)
			}
			comps[i].vars = append(comps[i].vars, v)
		}
	}
	s.Solve()
	values := func(c chain) []float64 {
		out := make([]float64, len(c.vars))
		for i, v := range c.vars {
			out[i] = v.Value
		}
		return out
	}
	expect := func(what string, want ...*Variable) {
		t.Helper()
		if got := s.Resolved(); !slices.Equal(got, want) {
			t.Fatalf("%s: Resolved() = %d variables in the wrong order or set, want %d", what, len(got), len(want))
		}
	}
	third := slices.Clone(comps[2].vars)
	thirdThenFirst := append(third, comps[0].vars...)

	second := values(comps[1])
	// Dirtying b walks b → v2, v1 → a → v0: traversal order is the reverse
	// of creation order.
	s.SetCapacity(comps[2].b, 5)
	s.SetCapacity(comps[0].b, 6)
	s.Solve()
	expect("third then first", thirdThenFirst...)
	if got := values(comps[1]); !slices.Equal(got, second) {
		t.Errorf("untouched component moved: %v -> %v", second, got)
	}

	// A dirty variable is discovered after every dirty constraint, whatever
	// order the mutations came in.
	comps[0].vars[2].Bound = 1
	s.markVariableDirty(comps[0].vars[2])
	s.SetCapacity(comps[2].a, 9)
	s.Solve()
	expect("dirty constraint before dirty variable", thirdThenFirst...)
	if got := values(comps[1]); !slices.Equal(got, second) {
		t.Errorf("untouched component moved: %v -> %v", second, got)
	}

	// A FatPipe constraint caps x and y without coupling them.
	pipe := s.NewConstraint("pipe", 4, FatPipe)
	x := s.NewVariable("x", 1, math.Inf(1))
	y := s.NewVariable("y", 1, math.Inf(1))
	s.Attach(x, s.NewConstraint("cx", 100, Shared))
	s.Attach(y, s.NewConstraint("cy", 100, Shared))
	s.Attach(x, pipe)
	s.Attach(y, pipe)
	s.Solve()
	s.Stats = &Stats{}
	s.SetCapacity(pipe, 3)
	s.Solve()
	expect("fatpipe", x, y)
	if s.Stats.Components != 2 || s.Stats.MaxComponentVars != 1 {
		t.Errorf("dirty FatPipe over two independent variables: %d components, largest %d variables; want 2 and 1",
			s.Stats.Components, s.Stats.MaxComponentVars)
	}
	if x.Value != 3 || y.Value != 3 {
		t.Errorf("fatpipe cap not applied: x=%v y=%v, want 3", x.Value, y.Value)
	}
}

// TestEmptiedConstraintIsNoComponent pins what Solve does with a Shared
// constraint whose last variable has left: it counts no component for it
// and resolves nothing of it, while the component it still shares a dirty
// set with is solved. Once a variable re-attaches, the constraint is solved
// as before, and solveFull agrees with the incremental values in both
// states.
func TestEmptiedConstraintIsNoComponent(t *testing.T) {
	s := New()
	st := &Stats{}
	s.Stats = st
	a := s.NewConstraint("a", 10, Shared)
	b := s.NewConstraint("b", 20, Shared)
	x := s.NewVariable("x", 1, math.Inf(1))
	s.Attach(x, a)
	y := s.NewVariable("y", 1, math.Inf(1))
	s.Attach(y, b)
	s.Solve()

	solve := func(what string, wantComponents uint64, want ...*Variable) {
		t.Helper()
		before := *st
		s.Solve()
		if got := st.Components - before.Components; got != wantComponents {
			t.Errorf("%s: Solve counted %d components, want %d", what, got, wantComponents)
		}
		if got := s.Resolved(); !slices.Equal(got, want) {
			t.Errorf("%s: Solve resolved %d variables, want %d", what, len(got), len(want))
		}
		if got := st.VarsResolved - before.VarsResolved; got != uint64(len(want)) {
			t.Errorf("%s: VarsResolved grew by %d, want %d", what, got, len(want))
		}
		values := make([]float64, len(s.variables))
		for i, v := range s.variables {
			values[i] = v.Value
		}
		s.solveFull()
		for i, v := range s.variables {
			if v.Value != values[i] {
				t.Errorf("%s: solveFull gives %q %v, Solve gave %v", what, v.Name, v.Value, values[i])
			}
		}
	}

	// a loses its only variable; y's capacity changes in the same step.
	s.RemoveVariable(x)
	s.SetCapacity(b, 16)
	solve("a emptied", 1, y)
	if y.Value != 16 {
		t.Errorf("y = %v, want 16", y.Value)
	}
	// An empty constraint retuned alone is still no component.
	s.SetCapacity(a, 6)
	solve("empty a retuned", 0)

	// z re-attaches to a and joins y's component through b: a's capacity
	// (6) bounds z, y takes the rest of b.
	z := s.NewVariable("z", 1, math.Inf(1))
	s.Attach(z, a)
	s.Attach(z, b)
	solve("a refilled", 1, y, z)
	if z.Value != 6 || y.Value != 10 {
		t.Errorf("z, y = %v, %v; want 6, 10", z.Value, y.Value)
	}

	// Emptying both constraints leaves nothing to solve.
	s.RemoveVariable(y)
	s.RemoveVariable(z)
	solve("both emptied", 0)
}
