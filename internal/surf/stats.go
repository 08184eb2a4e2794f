package surf

import (
	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/surf/actionheap"
)

// EventStats accumulates the event-path counters of a Network or a CPU
// model when attached via Instrument.
type EventStats struct {
	// Started counts routed flows, or compute tasks; Loopbacks counts the
	// empty-route transfers a Network serves by its loopback fast path (they
	// never join sharing).
	Started   uint64
	Loopbacks uint64
	// Completions counts actions delivered.
	Completions uint64
	// Syncs counts lazy drain syncs — one per action whose rate a reshare
	// changed, plus the overdue-restamp drains.
	Syncs uint64
	// Restamps counts overdue completion entries that were re-stamped
	// instead of completed (floating-point drift on huge actions).
	Restamps uint64
}

// UsageRecorder receives the byte and flop segments that both network
// models and the CPU model already compute. In the surf models, every time
// a flow or task is synced (its rate is about to change) or completes, the
// amount drained since its last sync is reported with the simulated
// interval it drained over. The packet-level emulator (internal/emu)
// reports each frame's payload on each link over its transmission
// interval. The segments for one transfer sum exactly to its size —
// recording is piggybacked on work the model does anyway, never
// recomputed — which is what makes per-link accounting conservative by
// construction (see internal/obs and its conservation test).
//
// Implementations must not retain the link/host pointers beyond the call
// graph of the owning model (they are stable platform handles, so retaining
// them is in fact safe, but treat segments as a stream).
type UsageRecorder interface {
	// RecordLink reports bytes drained over every link of a flow's route
	// during (from, to]. from == to happens for the final remainder of a
	// flow completing at its last sync date.
	RecordLink(l *platform.Link, from, to core.Time, bytes float64)
	// RecordHost reports flops drained on a host during (from, to].
	RecordHost(h *platform.Host, from, to core.Time, flops float64)
}

// Instrument attaches observability sinks to the model: event-path
// counters, the underlying LMM solver's counters, the action heap's
// counters, and a usage recorder receiving drained segments. Any of them may
// be nil; with all nil the model is back to zero overhead. Attach before the
// simulation runs.
func (e *engine[T]) Instrument(stats *EventStats, lmmStats *lmm.Stats, heapStats *actionheap.Stats, usage UsageRecorder) {
	e.stats = stats
	e.sys.Stats = lmmStats
	e.heap.Stats = heapStats
	e.usage = usage
}
