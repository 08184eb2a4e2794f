// Package smpi is the paper's primary contribution: an on-line simulator
// for MPI applications. Applications are ordinary Go functions written
// against an MPI-flavoured API (point-to-point operations, collectives,
// datatypes, reduction operators); their code genuinely executes —
// computing real data, paper Section 1's definition of on-line simulation —
// while every communication and compute burst is timed by a simulation
// backend:
//
//   - BackendSurf: the analytical SimGrid-style backend (package surf) with
//     flow-level contention and the piece-wise linear point-to-point model;
//   - BackendEmu: the packet-level testbed emulator (package emu), which
//     plays the role of the real clusters/MPI implementations the paper
//     validates against.
//
// All ranks of a simulated job run inside one OS process, one goroutine
// per rank, scheduled sequentially by the simix kernel — the single-node
// execution property of the paper's Section 3 — with CPU-burst sampling
// and RAM folding available through the Rank sampling API.
//
// # Wire-level folding
//
// Memory from Rank.SharedMalloc is folded: the application has declared
// that it does not depend on those bytes. The simulator recognizes such a
// buffer (any sub-slice of a live block) wherever it is handed one and moves
// no payload for it: an eager send references the buffer instead of
// snapshotting it, delivery skips the copy when either side is folded, and
// collectives stage folded buffers in aliased folded scratch instead of
// allocating. Lengths are preserved, so matching, truncation checks,
// Status.Count, traffic counters, traces and every simulated time are
// bit-identical to a run on private buffers; only the bytes are undefined,
// and a private buffer on the other side of such a message is left
// untouched. Private buffers keep the usual semantics: real bytes are
// delivered. The reduction collectives combine real data and always work
// on private accumulators. Timing-only harnesses (package experiments,
// skampi, replay) therefore run on folded buffers; SimGrid's SMPI makes
// the same choice for its shared mallocs.
//
// A folded block is an anonymous memory mapping, not a Go heap object: the
// OS commits a page only when something touches it, so a folded array
// nobody writes costs no memory. Folded memory is valid until Run returns,
// which unmaps every block of the world (also one dropped by the last
// SharedFree, which an in-flight message may still reference); a slice of
// it must not be kept past Run. A block the OS refuses to map fails the
// run with the block's id and size instead of killing the process.
//
// # Rank placement
//
// By default ranks are laid out round-robin over the platform's hosts;
// Config.Hosts pins rank i to Hosts[i] instead. Mappings are typically
// produced by package placement (block, round-robin-across-groups, seeded
// random) and validated here against the platform: a missing, nil, or
// foreign host fails Run with an error naming the offending rank.
//
// # Collective algorithm selection
//
// Each collective has several implementation variants (Algorithms), chosen
// per operation. A field set to "auto" (algoAuto) is resolved at Run time
// against the platform's interconnect family (platform.TopoInfo, attached
// by the topology generators and the cluster builder): ring schedules on
// tori, trees on fat-trees/dragonflies/clusters — see Algorithms.Resolve
// for the full table. Concrete fields are never touched, so "auto" and
// forced variants mix freely per collective.
package smpi
