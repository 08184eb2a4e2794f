// Package replay is the off-line simulator: it re-enacts a recorded trace
// (package trace) on a simulated platform, the "trace-based / post-mortem"
// approach of the simulators reviewed in the paper's Section 2. Each rank
// interprets its recorded program — compute bursts become delays, sends and
// receives become real point-to-point operations — through the same smpi
// machinery, so replayed communications experience the full network model,
// contention included. To a launcher a replay is one more application: App
// turns a trace into the rank function smpi.Run executes, as SimGrid runs
// its replayer as an ordinary MPI program under smpirun.
//
// This is the baseline the paper argues against: a replay is faithful only
// as long as the application's behaviour does not depend on the platform
// (no data-dependent communication, fixed schedules), whereas the on-line
// simulator re-executes the real code.
package replay

import (
	"fmt"

	"smpigo/internal/smpi"
	"smpigo/internal/trace"
)

// App resolves t to the rank function a launcher hands to smpi.Run, and
// the rank count the trace fixes, t.Procs: each rank interprets its
// recorded program. It refuses an empty or structurally unsound trace.
func App(t *trace.Trace) (rank func(*smpi.Rank), procs int, err error) {
	if t == nil || t.Procs <= 0 {
		return nil, 0, fmt.Errorf("replay: empty trace")
	}
	if err := validate(t); err != nil {
		return nil, 0, err
	}
	var largest int64
	for _, stream := range t.Streams {
		for _, ev := range stream {
			largest = max(largest, ev.Bytes)
		}
	}
	return func(r *smpi.Rank) {
		c := r.Comm()
		// A trace records sizes, not payloads: every message of every rank
		// is a prefix of one folded block, so the replay moves no bytes.
		block := r.SharedMalloc("replay", int(largest))
		var reqs []*smpi.Request
		for _, ev := range t.Streams[r.Rank()] {
			switch ev.Kind {
			case trace.Compute:
				r.Elapse(ev.Duration)
			case trace.Isend:
				reqs = append(reqs, r.Isend(c, block[:ev.Bytes], ev.Peer, ev.Tag))
			case trace.Irecv:
				reqs = append(reqs, r.Irecv(c, block[:ev.Bytes], ev.Peer, ev.Tag))
			case trace.Wait:
				r.Wait(reqs[ev.Req])
			}
		}
	}, t.Procs, nil
}

// validate checks the structural soundness of a trace before replaying:
// wait indices must reference issued requests and peers must be in range.
func validate(t *trace.Trace) error {
	for rank, stream := range t.Streams {
		issued := 0
		for i, ev := range stream {
			switch ev.Kind {
			case trace.Isend, trace.Irecv:
				if ev.Peer < 0 || ev.Peer >= t.Procs {
					return fmt.Errorf("replay: rank %d event %d: peer %d out of range (unresolved wildcard?)", rank, i, ev.Peer)
				}
				if ev.Bytes < 0 {
					return fmt.Errorf("replay: rank %d event %d: negative size", rank, i)
				}
				issued++
			case trace.Wait:
				if ev.Req < 0 || ev.Req >= issued {
					return fmt.Errorf("replay: rank %d event %d: wait on unissued request %d", rank, i, ev.Req)
				}
			case trace.Compute:
				if ev.Duration < 0 {
					return fmt.Errorf("replay: rank %d event %d: negative burst", rank, i)
				}
			default:
				return fmt.Errorf("replay: rank %d event %d: unknown kind %q", rank, i, ev.Kind)
			}
		}
	}
	return nil
}
