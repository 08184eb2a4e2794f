// Package lmm implements the Linear Max-Min solver used by the analytical
// network model, following the bandwidth-sharing approach of SimGrid's SURF
// kernel (Casanova et al.; validated against packet-level simulation by
// Velho & Legrand).
//
// The solver computes, for a set of variables (network flows) traversing a
// set of constraints (links with finite capacity), the bounded max-min fair
// allocation: capacities are filled progressively, every unfixed variable
// grows at a rate proportional to its weight until either one of its
// constraints saturates or the variable hits its own rate bound.
//
// Constraints can be Shared (the usual case: the capacity is divided among
// the flows crossing the link) or FatPipe (each flow is individually capped
// at the capacity but flows do not contend, which models an idealized
// backbone or the "no contention" ablation of the paper's Figures 7 and 11).
//
// # Selective re-solve
//
// Solving is incremental, following SimGrid's "lazy/selective update"
// design. Mutations (NewVariable, Attach, RemoveVariable, MarkDirty) record
// the touched constraints and variables in a dirty set; Solve partitions the
// dirty subgraph into connected components — variables coupled through
// shared constraints — and re-runs progressive filling only inside those
// components. Allocations of untouched components are left exactly as the
// previous Solve computed them.
//
// Because every component is always solved in isolation and its members are
// always processed in creation order, the incremental path is bit-identical
// to SolveFull (which just marks everything dirty): a sequence of
// Solve calls after mutations yields the same Values as rebuilding the
// system from scratch and solving once.
//
// Solve exposes the re-solved variables through Resolved(). That list is
// more than a convenience: it is the contract the surf models' sublinear
// event path is built on. A flow or task's rate can only change when its
// component is re-solved, so walking Resolved() — and nothing else — is
// sufficient to drain lazily-accounted progress and re-key completion dates
// in the models' actionheap. A variable whose component was not
// touched keeps its Value, its rate, and therefore its stamped date,
// bit-for-bit.
//
// # Place in the stack
//
// lmm is the numeric bottom of the simulator and depends on nothing else
// in the repository. The surf models own a System each: every in-flight
// transfer becomes a variable attached to its route's link constraints,
// every compute burst a variable on its host's constraint, and the
// topology builders (package topology) decide which link constraints a
// route crosses — which is how interconnect shape and rank placement end
// up expressed as nothing more than sharing structure in this solver.
package lmm
