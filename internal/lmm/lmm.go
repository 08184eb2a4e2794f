package lmm

import (
	"fmt"
	"math"
	"strconv"
)

// SharingPolicy selects how a constraint's capacity is distributed.
type SharingPolicy int

const (
	// Shared divides the capacity among all variables crossing the
	// constraint (max-min).
	Shared SharingPolicy = iota
	// FatPipe caps each variable at the capacity without any contention
	// between variables.
	FatPipe
)

// Resource is what a constraint models, as far as the solver needs it: a
// name for error messages. The name is asked for only when a message needs
// it, so creating a constraint formats no string.
type Resource interface{ Name() string }

// Constraint is a capacity-limited resource (a network link, a CPU).
type Constraint struct {
	Capacity float64
	Policy   SharingPolicy
	// Resource is what the constraint models (a platform link or host).
	// NewConstraint sets it from a non-empty name; nil leaves the
	// constraint anonymous.
	Resource Resource

	// id is the creation serial; constraints are never removed, so it is
	// also the dense index into System.constraints. Component members are
	// processed in id order, which keeps solves independent of dirty-set
	// traversal order.
	id int
	// vars lists the attached variables in attach order. Removal preserves
	// the relative order of survivors, so a long-lived system and a fresh
	// rebuild of its surviving variables share their constraints identically.
	vars []*Variable

	dirty bool
	mark  int // epoch stamp used by component collection

	// Scratch of the component fill. solveComponent resets both before
	// fill reads them, and nothing else reads them, so a constraint that
	// is not solved (one with no variable) may keep stale values.
	remaining float64
	// liveVars is the constraint's active list: the attached variables not
	// yet fixed by the current component solve, compacted (order-preserving)
	// as filling rounds progress so late rounds only scan surviving work.
	// The slice's capacity is retained across solves.
	liveVars []*Variable
}

// Variable is an entity receiving a share of the constrained capacities
// (a network flow, a compute task). After Solve, Value holds its allocation.
type Variable struct {
	// Weight scales the share this variable receives relative to its
	// competitors. Weight 0 disables the variable (it receives 0).
	Weight float64
	// Bound is an intrinsic rate bound (e.g. the per-size bandwidth bound
	// of the piece-wise linear model). Use math.Inf(1) for unbounded.
	Bound float64
	// Value is the allocation computed by the last Solve call.
	Value float64
	// Name is an optional label.
	Name string
	// Data is an arbitrary caller payload (e.g. the flow or task this
	// variable represents), giving Resolved() consumers a way back from a
	// re-solved variable to their own bookkeeping without a side table.
	Data any

	// id is the creation serial, the canonical ordering key inside a
	// component (ids are unique and increase monotonically, surviving the
	// swap-removals of the registry).
	id int
	// sysIdx is the variable's current position in System.variables, -1
	// once removed. It makes the registry half of RemoveVariable O(1).
	sysIdx int

	cons  []*Constraint
	dirty bool
	mark  int
	fixed bool
}

// System owns a set of constraints and variables and computes allocations.
type System struct {
	constraints []*Constraint
	// variables is an index-based registry: each variable carries its
	// current slot (sysIdx) and removal swap-fills the hole, so the order
	// of this slice is not meaningful.
	variables []*Variable

	nextVarID int
	// freeVars holds removed variables for NewVariable to reuse, each with
	// the capacity of its cons slice (see RemoveVariable).
	freeVars []*Variable

	// Dirty set consumed by the next Solve.
	dirtyCons []*Constraint
	dirtyVars []*Variable

	// Component-collection scratch (see solve.go).
	epoch  int
	stackC []*Constraint
	stackV []*Variable

	// compCons/compVars hold the members of the component being solved and
	// actCons/actVars its fill's active lists; all four keep their capacity
	// across solves.
	compCons []*Constraint
	compVars []*Variable
	actCons  []*Constraint
	actVars  []*Variable

	// resolved accumulates the variables whose components the last Solve
	// re-solved (see Resolved).
	resolved []*Variable

	// Stats, when non-nil, accumulates solver counters (solves, dirty-set
	// sizes, component shapes). Attach before solving; nil costs nothing.
	Stats *Stats
}

// New returns an empty system.
func New() *System { return &System{} }

// NewConstraint adds a constraint with the given capacity and policy.
func (s *System) NewConstraint(name string, capacity float64, policy SharingPolicy) *Constraint {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("lmm: invalid capacity %v for constraint %q", capacity, name))
	}
	c := &Constraint{Capacity: capacity, Policy: policy, id: len(s.constraints)}
	if name != "" {
		c.Resource = label(name)
	}
	s.constraints = append(s.constraints, c)
	return c
}

// label is the Resource of a constraint created with a name.
type label string

func (l label) Name() string { return string(l) }

// name is c's label in error messages: its Resource's name, or its creation
// serial when it has none.
func (c *Constraint) name() string {
	if c.Resource == nil {
		return "#" + strconv.Itoa(c.id)
	}
	return c.Resource.Name()
}

// NewVariable adds a variable with the given weight and rate bound.
// Use math.Inf(1) for an unbounded variable.
func (s *System) NewVariable(name string, weight, bound float64) *Variable {
	if weight < 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("lmm: invalid weight %v for variable %q", weight, name))
	}
	if bound < 0 || math.IsNaN(bound) {
		panic(fmt.Sprintf("lmm: invalid bound %v for variable %q", bound, name))
	}
	var v *Variable
	if n := len(s.freeVars); n > 0 {
		v = s.freeVars[n-1]
		s.freeVars = s.freeVars[:n-1]
		*v = Variable{cons: v.cons}
	} else {
		v = new(Variable)
	}
	v.Weight, v.Bound, v.Name = weight, bound, name
	v.id, v.sysIdx = s.nextVarID, len(s.variables)
	s.nextVarID++
	s.variables = append(s.variables, v)
	s.markVariableDirty(v)
	return v
}

// Attach routes variable v through constraint c. Attaching the same pair
// twice is allowed and has no additional effect.
func (s *System) Attach(v *Variable, c *Constraint) {
	for _, existing := range v.cons {
		if existing == c {
			return
		}
	}
	v.cons = append(v.cons, c)
	c.vars = append(c.vars, v)
	s.markDirty(c)
}

// RemoveVariable detaches v from every constraint and removes it from the
// system, marking the touched constraints dirty so the next Solve reshares
// their components. Typically called when a flow completes.
//
// The registry removal is O(1) (index-based swap); the constraint-side
// detach is an order-preserving delete per crossed constraint, so the whole
// operation is O(degree) in attached-list sizes rather than the former
// O(total variables) scan.
//
// The system owns v from here on and hands it out again from a later
// NewVariable, under a fresh id, so that a flow's variable and its cons
// slice are not garbage: the caller must drop its pointer. A variable
// removed while still in the dirty set is left to the GC instead — its slot
// there seeds component discovery order, which a second life would move.
func (s *System) RemoveVariable(v *Variable) {
	if v.sysIdx < 0 {
		return
	}
	for _, c := range v.cons {
		for i, w := range c.vars {
			if w == v {
				c.vars = append(c.vars[:i], c.vars[i+1:]...)
				break
			}
		}
		s.markDirty(c)
	}
	v.cons = v.cons[:0]
	last := len(s.variables) - 1
	moved := s.variables[last]
	s.variables[v.sysIdx] = moved
	moved.sysIdx = v.sysIdx
	s.variables[last] = nil
	s.variables = s.variables[:last]
	v.sysIdx = -1
	if !v.dirty {
		s.freeVars = append(s.freeVars, v)
	}
}

// markDirty records that c's capacity, policy, or attachments changed, so
// the next Solve re-solves the component(s) touching it. Attach,
// RemoveVariable and SetCapacity call it; they are the only ways to change
// a constraint after creation.
func (s *System) markDirty(c *Constraint) {
	if !c.dirty {
		c.dirty = true
		s.dirtyCons = append(s.dirtyCons, c)
	}
}

// SetCapacity changes c's capacity in place, with the same validation as
// NewConstraint (zero is allowed; negative or NaN panics). An unchanged
// capacity is a no-op; otherwise c is marked dirty so the next Solve
// re-solves exactly the component(s) touching it. This is the primitive
// time-varying platforms build on: surf's SetLinkBandwidth/SetHostSpeed
// drain their actions, call SetCapacity, and let the incremental solver
// restamp completion dates.
func (s *System) SetCapacity(c *Constraint, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("lmm: invalid capacity %v for constraint %q", capacity, c.name()))
	}
	if capacity == c.Capacity {
		return
	}
	c.Capacity = capacity
	s.markDirty(c)
}

// markVariableDirty records that v's weight or bound changed, so the next
// Solve re-solves its component. NewVariable calls it automatically.
func (s *System) markVariableDirty(v *Variable) {
	if !v.dirty {
		v.dirty = true
		s.dirtyVars = append(s.dirtyVars, v)
	}
}
