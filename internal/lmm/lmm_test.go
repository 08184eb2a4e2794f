package lmm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

func TestSingleFlowGetsFullCapacity(t *testing.T) {
	s := New()
	l := s.NewConstraint("link", 100, Shared)
	v := s.NewVariable("flow", 1, math.Inf(1))
	s.Attach(v, l)
	s.Solve()
	if !approx(v.Value, 100) {
		t.Errorf("single flow value = %v, want 100", v.Value)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	s := New()
	l := s.NewConstraint("link", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	if !approx(a.Value, 50) || !approx(b.Value, 50) {
		t.Errorf("shares = %v, %v, want 50, 50", a.Value, b.Value)
	}
}

func TestWeightedSharing(t *testing.T) {
	s := New()
	l := s.NewConstraint("link", 90, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 2, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	if !approx(a.Value, 30) || !approx(b.Value, 60) {
		t.Errorf("shares = %v, %v, want 30, 60", a.Value, b.Value)
	}
}

func TestBoundedFlowReleasesCapacity(t *testing.T) {
	s := New()
	l := s.NewConstraint("link", 100, Shared)
	a := s.NewVariable("a", 1, 10) // capped well below fair share
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	if !approx(a.Value, 10) {
		t.Errorf("bounded flow = %v, want 10", a.Value)
	}
	if !approx(b.Value, 90) {
		t.Errorf("unbounded flow should absorb slack: %v, want 90", b.Value)
	}
}

// The staleness regression: after a bottleneck fixes two flows, a second
// constraint crossed by one of them must hand its true residual capacity to
// its remaining flow, not the bottleneck rate.
func TestResidualCapacityAfterBottleneck(t *testing.T) {
	s := New()
	c1 := s.NewConstraint("c1", 2, Shared)
	c2 := s.NewConstraint("c2", 2.2, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	c := s.NewVariable("c", 1, math.Inf(1))
	s.Attach(a, c1)
	s.Attach(b, c1)
	s.Attach(b, c2)
	s.Attach(c, c2)
	s.Solve()
	if !approx(a.Value, 1) || !approx(b.Value, 1) {
		t.Errorf("bottleneck shares = %v, %v, want 1, 1", a.Value, b.Value)
	}
	if !approx(c.Value, 1.2) {
		t.Errorf("residual share = %v, want 1.2", c.Value)
	}
}

func TestMultiHopFlowLimitedByTightestLink(t *testing.T) {
	s := New()
	fast := s.NewConstraint("fast", 1000, Shared)
	slow := s.NewConstraint("slow", 10, Shared)
	v := s.NewVariable("v", 1, math.Inf(1))
	s.Attach(v, fast)
	s.Attach(v, slow)
	s.Solve()
	if !approx(v.Value, 10) {
		t.Errorf("multi-hop flow = %v, want 10", v.Value)
	}
}

func TestFatPipeNoContention(t *testing.T) {
	s := New()
	bb := s.NewConstraint("backbone", 100, FatPipe)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, bb)
	s.Attach(b, bb)
	s.Solve()
	if !approx(a.Value, 100) || !approx(b.Value, 100) {
		t.Errorf("fatpipe shares = %v, %v, want 100 each", a.Value, b.Value)
	}
}

func TestFatPipeCombinedWithSharedLink(t *testing.T) {
	s := New()
	edge := s.NewConstraint("edge", 60, Shared)
	bb := s.NewConstraint("backbone", 40, FatPipe)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, edge)
	s.Attach(a, bb)
	s.Attach(b, edge)
	s.Solve()
	// a is capped at 40 by the fatpipe; b takes the shared link residual.
	if !approx(a.Value, 30) && !approx(a.Value, 40) {
		t.Errorf("a = %v", a.Value)
	}
	s.Solve()
	total := a.Value + b.Value
	if total > 60+eps {
		t.Errorf("shared link oversubscribed: %v > 60", total)
	}
	// Fair share is 30/30 (both below a's 40 cap).
	if !approx(a.Value, 30) || !approx(b.Value, 30) {
		t.Errorf("shares = %v, %v, want 30, 30", a.Value, b.Value)
	}
}

func TestZeroWeightVariableGetsNothing(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	a := s.NewVariable("a", 0, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	if a.Value != 0 {
		t.Errorf("zero-weight var got %v", a.Value)
	}
	if !approx(b.Value, 100) {
		t.Errorf("b = %v, want 100", b.Value)
	}
}

func TestRemoveVariableRedistributes(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	if !approx(a.Value, 50) {
		t.Fatalf("pre-removal share = %v", a.Value)
	}
	s.RemoveVariable(a)
	s.Solve()
	if !approx(b.Value, 100) {
		t.Errorf("after removal b = %v, want 100", b.Value)
	}
	if len(s.variables) != 1 {
		t.Errorf("variables left = %d, want 1", len(s.variables))
	}
}

// TestRemovedVariableSecondLife: a removed variable comes back from the next
// NewVariable as a blank one under a fresh id, with the storage of its
// constraint list — unless it was removed while still in the dirty set,
// where its slot seeds the order components are discovered in: a second life
// there would move the new variable ahead of the ones created in between.
func TestRemovedVariableSecondLife(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	// Unattached bounded variables are components of their own, discovered
	// through the dirty set alone.
	a := s.NewVariable("a", 1, 1)
	b := s.NewVariable("b", 1, 2)
	s.RemoveVariable(a) // still dirty
	c := s.NewVariable("c", 1, 3)
	if c == a {
		t.Fatal("a variable removed while dirty was given a second life")
	}
	s.Solve()
	if got := s.Resolved(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("resolved %v, want b then c", got)
	}

	s.Attach(b, l)
	s.Solve()
	s.RemoveVariable(b) // clean
	d := s.NewVariable("d", 2, 4)
	if d != b {
		t.Fatal("a removed variable was not reused")
	}
	if d.id != 3 || d.Name != "d" || d.Weight != 2 || d.Bound != 4 || d.Value != 0 || len(d.cons) != 0 || cap(d.cons) == 0 {
		t.Errorf("second life is not a blank variable 3 with its cons storage: %+v", d)
	}
	s.Solve()
	if got := s.Resolved(); len(got) != 1 || got[0] != d || d.Value != 4 {
		t.Errorf("resolved %v, d = %v, want d alone at its bound 4", got, d.Value)
	}
}

func TestAttachIsIdempotent(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(a, l)
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(b, l)
	s.Solve()
	if !approx(a.Value, 50) || !approx(b.Value, 50) {
		t.Errorf("double attach skewed shares: %v, %v", a.Value, b.Value)
	}
}

func TestUnboundedNoConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unbounded unconstrained variable")
		}
	}()
	s := New()
	s.NewVariable("v", 1, math.Inf(1))
	s.Solve()
}

func TestBoundOnlyVariable(t *testing.T) {
	s := New()
	v := s.NewVariable("v", 1, 42)
	s.Solve()
	if !approx(v.Value, 42) {
		t.Errorf("bound-only variable = %v, want 42", v.Value)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative capacity")
		}
	}()
	New().NewConstraint("bad", -1, Shared)
}

func TestInvalidWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative weight")
		}
	}()
	New().NewVariable("bad", -1, 1)
}

// Regression: NewVariable used to validate the weight but not the bound, so
// a NaN or negative bound silently corrupted the solve (the effectiveBound
// comparisons misbehave on NaN).
func TestInvalidBoundPanics(t *testing.T) {
	for _, bound := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for bound %v", bound)
				}
			}()
			New().NewVariable("bad", 1, bound)
		}()
	}
}

func TestCheckPassesAfterSolve(t *testing.T) {
	s := New()
	l1 := s.NewConstraint("l1", 100, Shared)
	l2 := s.NewConstraint("l2", 30, Shared)
	bb := s.NewConstraint("bb", 80, FatPipe)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 2, 25)
	c := s.NewVariable("c", 1, math.Inf(1))
	s.Attach(a, l1)
	s.Attach(a, bb)
	s.Attach(b, l1)
	s.Attach(b, l2)
	s.Attach(c, l2)
	s.Solve()
	if err := s.check(); err != nil {
		t.Fatalf("check after solve: %v", err)
	}
	s.RemoveVariable(b)
	s.Solve()
	if err := s.check(); err != nil {
		t.Fatalf("check after removal + incremental solve: %v", err)
	}
}

// Regression for the silent clamp: the solver used to floor negative
// remaining capacity to zero no matter how negative it went, masking
// over-subscription. check now surfaces a constraint carrying more than its
// capacity (here forged by corrupting an allocation after the solve, the
// only way to over-commit a correct solver).
func TestCheckDetectsOverCapacity(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, l)
	s.Solve()
	a.Value = 80 // 80 + 50 > 100
	if err := s.check(); err == nil {
		t.Error("check missed an oversubscribed constraint")
	}
}

func TestCheckDetectsUnpinnedVariable(t *testing.T) {
	s := New()
	l := s.NewConstraint("l", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	s.Attach(a, l)
	s.Solve()
	a.Value = 10 // below capacity, not at any bound: max-min would grow it
	if err := s.check(); err == nil {
		t.Error("check missed an unpinned variable")
	}
}

// Incremental solving must leave untouched components bit-identical: flows
// on disjoint links keep the exact float64 allocation of their last solve
// when another component churns.
func TestIncrementalLeavesCleanComponentsUntouched(t *testing.T) {
	s := New()
	l1 := s.NewConstraint("l1", 90, Shared)
	l2 := s.NewConstraint("l2", 70, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 2, math.Inf(1))
	s.Attach(a, l1)
	s.Attach(b, l1)
	c := s.NewVariable("c", 1, math.Inf(1))
	s.Attach(c, l2)
	s.Solve()
	aBefore, bBefore := a.Value, b.Value
	// Churn only l2's component.
	d := s.NewVariable("d", 1, math.Inf(1))
	s.Attach(d, l2)
	s.Solve()
	if a.Value != aBefore || b.Value != bBefore {
		t.Errorf("clean component drifted: a %v->%v, b %v->%v", aBefore, a.Value, bBefore, b.Value)
	}
	if !approx(c.Value, 35) || !approx(d.Value, 35) {
		t.Errorf("dirty component shares = %v, %v, want 35, 35", c.Value, d.Value)
	}
}

// buildRandomSystem constructs a pseudo-random feasible system from raw
// fuzz inputs, returning the system plus the lists needed for checks.
func buildRandomSystem(caps []uint8, routes [][]uint8, bounds []uint8) (*System, []*Constraint, []*Variable) {
	s := New()
	var cons []*Constraint
	for i, c := range caps {
		cons = append(cons, s.NewConstraint("c", float64(c%100)+1, SharingPolicy(i%2)*0)) // all Shared
	}
	if len(cons) == 0 {
		cons = append(cons, s.NewConstraint("c0", 50, Shared))
	}
	var vars []*Variable
	for i, route := range routes {
		bound := math.Inf(1)
		if i < len(bounds) && bounds[i]%3 == 0 {
			bound = float64(bounds[i])/4 + 0.5
		}
		v := s.NewVariable("v", 1, bound)
		attached := false
		for _, hop := range route {
			s.Attach(v, cons[int(hop)%len(cons)])
			attached = true
		}
		if !attached {
			s.Attach(v, cons[0])
		}
		vars = append(vars, v)
	}
	return s, cons, vars
}

// Property 1: no constraint is oversubscribed; Property 2: every variable is
// "blocked" — it either sits at its bound or crosses at least one saturated
// constraint (Pareto efficiency of max-min fairness).
func TestSolveProperties(t *testing.T) {
	f := func(caps []uint8, routes [][]uint8, bounds []uint8) bool {
		if len(routes) > 40 {
			routes = routes[:40]
		}
		if len(caps) > 10 {
			caps = caps[:10]
		}
		s, cons, vars := buildRandomSystem(caps, routes, bounds)
		s.Solve()
		for _, c := range cons {
			sum := 0.0
			for _, v := range c.vars {
				sum += v.Value
			}
			if sum > c.Capacity*(1+1e-6) {
				return false
			}
		}
		for _, v := range vars {
			if v.Value < 0 {
				return false
			}
			atBound := !math.IsInf(v.Bound, 1) && v.Value >= v.Bound*(1-1e-6)
			saturated := false
			for _, c := range v.cons {
				sum := 0.0
				for _, w := range c.vars {
					sum += w.Value
				}
				if sum >= c.Capacity*(1-1e-6) {
					saturated = true
				}
			}
			if !atBound && !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// countingName is a constraint Resource that counts how often its name is
// asked for.
type countingName struct{ calls int }

func (r *countingName) Name() string { r.calls++; return "link-7" }

// TestConstraintNamedOnDemand pins that a constraint's name is derived from
// its Resource only when a message needs it: creating and solving formats
// nothing, an error names the resource, and a constraint created without a
// name or Resource is labelled by its creation serial.
func TestConstraintNamedOnDemand(t *testing.T) {
	s := New()
	res := &countingName{}
	l := s.NewConstraint("", 100, Shared)
	l.Resource = res
	anon := s.NewConstraint("", 100, Shared)
	a := s.NewVariable("a", 1, math.Inf(1))
	b := s.NewVariable("b", 1, math.Inf(1))
	s.Attach(a, l)
	s.Attach(b, anon)
	s.Solve()
	if err := s.check(); err != nil || res.calls != 0 {
		t.Fatalf("check = %v after %d name calls, want nil after none", err, res.calls)
	}
	a.Value = 150
	if err := s.check(); err == nil || !strings.Contains(err.Error(), `"link-7"`) {
		t.Errorf("check = %v, want an error naming \"link-7\"", err)
	}
	a.Value, b.Value = 100, 150
	if err := s.check(); err == nil || !strings.Contains(err.Error(), `"#1"`) {
		t.Errorf("check = %v, want an error naming the anonymous constraint \"#1\"", err)
	}
	if named := s.NewConstraint("edge", 1, Shared); named.name() != "edge" {
		t.Errorf("NewConstraint(\"edge\", ...) is named %q", named.name())
	}
}

// TestConstraintSizeClass pins Constraint in the 112-byte allocator size
// class: a surf network allocates one per link its flows use.
func TestConstraintSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Constraint{}); got > 112 {
		t.Errorf("Constraint is %d bytes, past the 112-byte size class", got)
	}
}
