// Package simix implements the sequential simulation kernel that SMPI's
// design rests on (the paper's Section 5.1): every simulated MPI process is
// an actor with its own execution context, but actors run strictly one at a
// time under the control of the kernel, which alone advances simulated time.
//
// In the original SMPI, actors are threads multiplexed by SimGrid's SIMIX
// layer; here each actor is a goroutine. There is no scheduler goroutine:
// the kernel loop is a function run by whichever goroutine holds the baton.
// An actor that performs a blocking simulation call runs the loop itself —
// picks the next ready actor, advancing the clock first when none is ready —
// and hands that actor the baton, as SimGrid's raw contexts switch straight from one
// actor to the next in serial mode. One actor run thus costs one goroutine
// switch, and none when the blocking actor is its own successor. The baton
// goes back to Run only when the run is over. At most one goroutine is ever
// runnable, so the simulation is deterministic and safe without locks, at
// any GOMAXPROCS.
//
// Resource models (the analytical SURF network/CPU models, or the
// packet-level testbed emulator) plug in through the Model interface: the
// kernel asks each model for its next internal completion date, advances
// the clock to the global minimum, and lets models fulfill the futures that
// blocked actors are waiting on.
//
// In the stack of this repository, simix is the bottom of the simulation
// half: smpi spawns one kernel actor per MPI rank, the surf/emu models sit
// beside the kernel, and everything above (experiments, campaigns) only
// ever calls smpi.Run. The kernel knows nothing about MPI, platforms, or
// topologies — it schedules actors and merges model event streams.
package simix
