package smpi

import (
	"fmt"
)

// This file exposes the paper's scalability macros (Section 5.2, Figure 2)
// as Rank methods. The C macros expand to hash-table lookups keyed by
// source location; here the caller passes the site identifier explicitly.

// SampleLocal runs the CPU burst identified by id at most n times on this
// rank, measuring its wall-clock duration each time; later occurrences are
// bypassed and replaced by the mean measured duration (SMPI_SAMPLE_LOCAL).
// The burst's duration — measured or replayed — is charged to simulated
// time.
func (r *Rank) SampleLocal(id string, n int, fn func()) {
	key := fmt.Sprintf("%s@rank%d", id, r.rank)
	d, _ := r.w.reg.Sample(key, n, fn)
	r.Elapse(d)
}

// SampleGlobal is like SampleLocal but the n measurements are shared across
// all ranks (SMPI_SAMPLE_GLOBAL): with a regular SPMD burst, total execution
// cost is independent of the rank count (paper Section 3.1).
func (r *Rank) SampleGlobal(id string, n int, fn func()) {
	d, _ := r.w.reg.Sample(id, n, fn)
	r.Elapse(d)
}

// SampleLocalFlops runs the CPU burst identified by id at most n times on
// this rank for its real side effects (the on-line property: the data is
// genuinely computed), while charging a deterministic modelled cost of flops
// on every occurrence — executed or bypassed. Unlike SampleLocal, whose
// wall-clock measurement makes the replayed mean hostage to scheduler noise
// and cold-start outliers, the sampled path charges exactly the same
// simulated cost as the fully-executed path, so simulated time is
// bit-identical at any sampling ratio and under any host load.
func (r *Rank) SampleLocalFlops(id string, n int, flops float64, fn func()) {
	key := fmt.Sprintf("%s@rank%d", id, r.rank)
	r.w.reg.Observe(key, n, fn)
	r.Compute(flops)
}

// SampleGlobalFlops is SampleLocalFlops with SMPI_SAMPLE_GLOBAL semantics:
// the n executions are shared across all ranks.
func (r *Rank) SampleGlobalFlops(id string, n int, flops float64, fn func()) {
	r.w.reg.Observe(id, n, fn)
	r.Compute(flops)
}

// SampleFlops never executes anything: it charges the given flop amount on
// the host (SMPI_SAMPLE_DELAY, whose argument is a flop count). Use with
// RAM folding technique #2: when bursts are never executed, their arrays
// need not exist at all.
func (r *Rank) SampleFlops(flops float64) {
	r.Compute(flops)
}

// SharedMalloc returns the world-shared buffer for id (SMPI_SHARED_MALLOC):
// every rank asking for the same id gets the same backing array, folding
// m copies into one (paper Section 3.2, technique #1).
//
// Folding declares that the application does not depend on these bytes, and
// the simulator takes it at its word: a message sent from or received into
// folded memory (any sub-slice of it, until the last SharedFree) is timed,
// counted, matched and traced exactly like a private one, but its payload
// is never copied, and collectives stage folded buffers in aliased folded
// scratch instead of allocating. What a folded buffer holds after a
// communication is therefore undefined; a private buffer on the other side
// of such a message is left untouched. Use private memory (make or
// Rank.Malloc) for data the application reads back.
//
// The block is mapped on first use and reads zero; it is valid until Run
// returns, which unmaps it, so no slice of it may outlive the run.
func (r *Rank) SharedMalloc(id string, size int) []byte {
	return r.w.reg.SharedMalloc(id, size)
}

// SharedFree releases one reference to a shared buffer (SMPI_FREE).
func (r *Rank) SharedFree(id string) {
	r.w.reg.SharedFree(id)
}

// Malloc allocates a private, footprint-accounted buffer. Using Malloc
// instead of make() lets the report's MaxPeakRSS reproduce the paper's
// Figure 16 measurements.
func (r *Rank) Malloc(size int) []byte {
	return r.w.reg.Malloc(r.rank, size)
}

// Free returns a buffer allocated with Malloc to the accounting.
func (r *Rank) Free(buf []byte) {
	r.w.reg.Free(r.rank, len(buf))
}
