// Package obs is the simulator's observability layer: kernel counters and
// resource-utilization accounting that attach to the simix kernel, the surf
// models and the emulator through the nil-guarded hooks those packages expose
// (simix.Stats, surf.EventStats, lmm.Stats, actionheap.Stats,
// surf.UsageRecorder). One Stats value carries all of them, and
// smpi.Config.Stats attaches it to a run. Everything here is strictly
// additive: attaching the layer never changes a simulation's outcome, and
// leaving it detached — the default — costs a nil check per hook, nothing
// more.
//
// The split matters for reproducibility: campaign fingerprints cover
// simulation *results* (simulated times, sample values), never these
// counters, so instrumentation can evolve without invalidating recorded
// fingerprints.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"smpigo/internal/lmm"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/surf/actionheap"
)

// Stats aggregates every kernel-side counter of one simulation run: the
// simix scheduler, both surf models, their LMM solvers and completion heaps,
// and the route-lookup count from the MPI layer, plus an optional usage
// recorder. Attach its fields before the run (smpi.Config.Stats wires all
// of them); read after.
type Stats struct {
	Kernel simix.Stats
	Net    surf.EventStats
	CPU    surf.EventStats
	// NetLMM/CPULMM are the solver counters of the network and compute
	// models' independent LMM systems.
	NetLMM lmm.Stats
	CPULMM lmm.Stats
	// NetHeap/CPUHeap are the completion-date heap counters: pushes count
	// every date given (a re-key too), len.max the most actions in flight
	// at once. On the emulator backend NetHeap counts packet-hop events
	// instead of flow completions.
	NetHeap actionheap.Stats
	CPUHeap actionheap.Stats
	// Routes counts route lookups performed by the MPI transfer path.
	Routes uint64
	// Usage, when non-nil, receives the byte/flop segments of the compute
	// model and of either network model (per-link utilization accounting;
	// see Usage). nil means off.
	Usage surf.UsageRecorder
}

// Flat returns the counters as a flat metric map. Keys are stable (they
// appear in campaign summaries and in bench/'s per-op ledger); keys with
// the ".max" suffix are high-water marks and aggregate by maximum, all
// others by sum (as a campaign summary merges them).
func (s *Stats) Flat() map[string]float64 {
	return map[string]float64{
		"kernel.rounds":              float64(s.Kernel.Rounds),
		"kernel.actor_runs":          float64(s.Kernel.ActorRuns),
		"kernel.timer_fires":         float64(s.Kernel.TimerFires),
		"net.flows":                  float64(s.Net.Started),
		"net.loopbacks":              float64(s.Net.Loopbacks),
		"net.completions":            float64(s.Net.Completions),
		"net.syncs":                  float64(s.Net.Syncs),
		"net.restamps":               float64(s.Net.Restamps),
		"cpu.tasks":                  float64(s.CPU.Started),
		"cpu.completions":            float64(s.CPU.Completions),
		"cpu.syncs":                  float64(s.CPU.Syncs),
		"cpu.restamps":               float64(s.CPU.Restamps),
		"lmm.net.solves":             float64(s.NetLMM.Solves),
		"lmm.net.full_solves":        float64(s.NetLMM.FullSolves),
		"lmm.net.dirty_cons":         float64(s.NetLMM.DirtyConstraints),
		"lmm.net.dirty_vars":         float64(s.NetLMM.DirtyVariables),
		"lmm.net.components":         float64(s.NetLMM.Components),
		"lmm.net.vars_resolved":      float64(s.NetLMM.VarsResolved),
		"lmm.net.component_vars.max": float64(s.NetLMM.MaxComponentVars),
		"lmm.net.component_cons.max": float64(s.NetLMM.MaxComponentCons),
		"lmm.cpu.solves":             float64(s.CPULMM.Solves),
		"lmm.cpu.full_solves":        float64(s.CPULMM.FullSolves),
		"lmm.cpu.dirty_cons":         float64(s.CPULMM.DirtyConstraints),
		"lmm.cpu.dirty_vars":         float64(s.CPULMM.DirtyVariables),
		"lmm.cpu.components":         float64(s.CPULMM.Components),
		"lmm.cpu.vars_resolved":      float64(s.CPULMM.VarsResolved),
		"lmm.cpu.component_vars.max": float64(s.CPULMM.MaxComponentVars),
		"lmm.cpu.component_cons.max": float64(s.CPULMM.MaxComponentCons),
		"heap.net.pushes":            float64(s.NetHeap.Pushes),
		"heap.net.pops":              float64(s.NetHeap.Pops),
		"heap.net.len.max":           float64(s.NetHeap.MaxLen),
		"heap.cpu.pushes":            float64(s.CPUHeap.Pushes),
		"heap.cpu.pops":              float64(s.CPUHeap.Pops),
		"heap.cpu.len.max":           float64(s.CPUHeap.MaxLen),
		"routes":                     float64(s.Routes),
	}
}

// Report renders the counters as an aligned key/value block, keys sorted,
// zero-valued counters dropped (a quiet model contributes no noise).
func (s *Stats) Report() string { return FormatFlat(s.Flat()) }

// NonZero returns a copy of flat with zero-valued entries dropped — the
// form worth persisting in campaign outcomes, where a quiet model's zeros
// would only bloat the JSON.
func NonZero(flat map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(flat))
	for k, v := range flat {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// FormatFlat renders any flat metric map (a Stats.Flat result, or a
// campaign.Summary.Stats aggregate) as an aligned key/value block, keys
// sorted, zero-valued entries dropped.
func FormatFlat(flat map[string]float64) string {
	keys := make([]string, 0, len(flat))
	width := 0
	for k, v := range flat {
		if v == 0 {
			continue
		}
		keys = append(keys, k)
		if len(k) > width {
			width = len(k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-*s %.0f\n", width+1, k, flat[k])
	}
	return b.String()
}
