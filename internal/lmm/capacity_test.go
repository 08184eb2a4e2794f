package lmm

import (
	"math"
	"math/rand"
	"testing"
)

// TestSetCapacityMatchesFromScratch drives the add/remove churn of
// TestIncrementalMatchesFromScratch with capacity mutations interleaved and
// pins the refactor's core claim: SetCapacity-then-solve is bit-identical to
// rebuilding the whole system from scratch with the new capacities. The
// dirty-set integration may lose no component, and a capacity change may
// perturb nothing outside its component.
func TestSetCapacityMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
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
		for step := 0; step < 60; step++ {
			switch {
			case rng.Intn(2) == 0: // mutate a random constraint's capacity
				i := rng.Intn(nCons)
				specs[i].capacity = float64(rng.Intn(200)) / 2
				s.SetCapacity(cons[i], specs[i].capacity)
			case len(live) > 0 && (len(live) > 25 || rng.Intn(2) == 0):
				i := rng.Intn(len(live))
				s.RemoveVariable(live[i].v)
				live = append(live[:i], live[i+1:]...)
			default:
				addVar()
			}
			s.Solve()
			if err := s.check(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if step%5 != 0 {
				continue
			}
			// From-scratch rebuild with the CURRENT capacities.
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
		}
	}
}

// TestSetCapacityDirtySet pins the dirty-set contract: an unchanged capacity
// marks nothing, a changed one marks exactly that constraint.
func TestSetCapacityDirtySet(t *testing.T) {
	s := New()
	a := s.NewConstraint("a", 10, Shared)
	b := s.NewConstraint("b", 20, Shared)
	v := s.NewVariable("v", 1, math.Inf(1))
	s.Attach(v, a)
	s.Solve()
	if len(s.dirtyCons) != 0 {
		t.Fatalf("dirty set not drained by Solve: %d entries", len(s.dirtyCons))
	}
	s.SetCapacity(a, 10) // no-op
	if len(s.dirtyCons) != 0 {
		t.Errorf("unchanged capacity dirtied %d constraint(s), want 0", len(s.dirtyCons))
	}
	s.SetCapacity(a, 5)
	if len(s.dirtyCons) != 1 || s.dirtyCons[0] != a {
		t.Errorf("changed capacity dirtied %v, want exactly [a]", s.dirtyCons)
	}
	s.SetCapacity(a, 4) // already dirty: no duplicate
	if len(s.dirtyCons) != 1 {
		t.Errorf("re-dirtying duplicated the entry: %d", len(s.dirtyCons))
	}
	s.Solve()
	if v.Value != 4 {
		t.Errorf("after SetCapacity(a, 4): v.Value = %v, want 4", v.Value)
	}
	if b.Capacity != 20 {
		t.Errorf("unrelated constraint capacity changed: %v", b.Capacity)
	}
}

// TestSetCapacityValidation mirrors NewConstraint: zero is a legal capacity,
// negative and NaN panic.
func TestSetCapacityValidation(t *testing.T) {
	s := New()
	c := s.NewConstraint("c", 1, Shared)
	s.SetCapacity(c, 0) // zero is legal (a failed resource)
	if c.Capacity != 0 {
		t.Errorf("capacity = %v, want 0", c.Capacity)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCapacity(%v) did not panic", bad)
				}
			}()
			s.SetCapacity(c, bad)
		}()
	}
}
