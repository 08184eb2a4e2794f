package campaign

import "fmt"

// Merge combines the summaries of shard campaigns — the same job set split
// into disjoint slices and run separately, possibly on different processes
// or machines — back into one summary, as if a single campaign had run every
// job.
//
// The shard-merge contract: because every job's seed derives from the
// campaign seed and the job's ID (never from scheduling), a job computes
// bit-identical results no matter which shard ran it. Parts given in shard
// order — each holding a contiguous job-index range of the full grid, as
// produced by experiments.GridSpec sharding — therefore concatenate into a
// summary whose Fingerprint equals the unsharded run's, which is exactly
// what the service's shard-merge endpoint asserts.
//
// All parts must share one campaign seed, none may be canceled (a canceled
// shard is partial, so the merge would silently misreport skipped jobs as
// the campaign's outcome), and no job ID may appear twice. Empty parts
// (shards of a grid smaller than the shard count) merge fine. Wall is the
// maximum over parts, since shards are expected to have run concurrently.
func Merge(parts ...*Summary) (*Summary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: merge of zero summaries")
	}
	merged := &Summary{Seed: parts[0].Seed}
	seen := make(map[string]bool)
	for pi, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("campaign: merge part %d is nil", pi)
		}
		if p.Seed != merged.Seed {
			return nil, fmt.Errorf("campaign: merge part %d has seed %d, part 0 has %d (shards must share the campaign seed)", pi, p.Seed, merged.Seed)
		}
		if p.Canceled {
			return nil, fmt.Errorf("campaign: merge part %d is canceled (partial); refusing to merge", pi)
		}
		if p.Workers > merged.Workers {
			merged.Workers = p.Workers
		}
		if p.Wall > merged.Wall {
			merged.Wall = p.Wall
		}
		for i := range p.Results {
			r := &p.Results[i]
			if seen[r.ID] {
				return nil, fmt.Errorf("campaign: merge: job %q appears in more than one part (shards must be disjoint)", r.ID)
			}
			seen[r.ID] = true
			merged.Results = append(merged.Results, *r)
			// Re-hydrate Err from its JSON mirror: shard summaries that
			// crossed a process boundary carry only the string.
			if r.Err == nil && r.Error != "" {
				merged.Results[len(merged.Results)-1].Err = fmt.Errorf("%s", r.Error)
			}
		}
	}
	merged.Jobs = len(merged.Results)
	merged.tally()
	return merged, nil
}
