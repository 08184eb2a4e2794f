// Package surf implements the analytical resource models of the simulation
// kernel, after SimGrid's SURF layer (paper Sections 4 and 5.1):
//
//   - a flow-level network model where concurrent transfers share link
//     bandwidth max-min fairly (the validated SimGrid contention model), and
//     where per-flow latency and rate bounds come from a piece-wise linear
//     point-to-point model (the paper's Section 4.1 contribution);
//   - a CPU model where compute actions share host speed.
//
// Both models plug into the simix kernel through its Model interface: the
// kernel asks each model for its next completion date and tells it to
// advance, and the models fulfill the futures blocked actors wait on.
//
// Bandwidth and CPU sharing both run through the incremental Linear
// Max-Min solver of package lmm: every in-flight flow is a solver variable
// attached to the constraints of the links on its route (as resolved by
// platform.Platform.Route), and every compute burst a variable on its
// host's constraint. After each mutation the solver re-solves only the
// dirty components and reports which variables changed, so the models
// refresh rates and completion estimates for those alone.
//
// The event path exists once, in the unexported engine both models embed
// (engine.go), as SimGrid's SURF shares generic_update_actions_state_lazy
// between its CPU and network models. It is sublinear in the action
// population: next dates live in the min-heap of package actionheap, one
// entry per action re-keyed in place, NextEvent is an O(1) peek, and
// lmm.Solve's Resolved() set is the only thing that re-stamps a date — an
// action's bytes (or flops) drain lazily between rate changes rather than
// being walked every kernel step.
// See docs/ARCHITECTURE.md ("The event path") for the full design and the
// determinism argument.
package surf
