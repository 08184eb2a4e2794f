package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"smpigo/internal/dynamics"
	"smpigo/internal/placement"
	"smpigo/internal/smpi"
)

// Canonicalize returns the spec's canonical form: two specs that expand to
// the same set of simulations — differing only in axis order, duplicate
// entries, case, spelled-out defaults, or alias spellings ("round-robin"
// for "rr", "0.002s" for "2ms" in a dynamics schedule) — canonicalize to
// the same value, and a canonical spec expands its axes in a fixed (sorted)
// order regardless of how the caller listed them.
//
// This is what makes result caching by fingerprint-input sound end to end:
// the campaign service runs the canonical spec, so its cache key (see
// CampaignKey) and the jobs it actually executes are derived from one
// normalized value — semantically equal requests hit the same cache entry
// AND would have produced byte-identical summaries.
//
// Canonicalization validates as it goes (unknown backends, models,
// placements, malformed dynamics, out-of-range shards fail here, before any
// job runs).
func (spec GridSpec) Canonicalize() (GridSpec, error) {
	c := spec

	c.Op = strings.ToLower(strings.TrimSpace(spec.Op))
	switch c.Op {
	case "scatter", "alltoall", "bcast", "allreduce":
		c.Procs = slices.Clone(spec.Procs)
		slices.Sort(c.Procs)
		c.Procs = slices.Compact(c.Procs)
	case "pingpong":
		// Pingpong ignores the procs axis entirely (expand collapses it),
		// so every procs list is equivalent to [2].
		c.Procs = []int{2}
	default:
		return GridSpec{}, fmt.Errorf("grid: unknown op %q (want scatter, alltoall, bcast, allreduce, pingpong)", spec.Op)
	}
	if len(c.Procs) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one process count")
	}

	c.Sizes = slices.Clone(spec.Sizes)
	slices.Sort(c.Sizes)
	c.Sizes = slices.Compact(c.Sizes)
	if len(c.Sizes) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one size")
	}

	c.Backends = nil
	for _, b := range spec.Backends {
		b = strings.ToLower(strings.TrimSpace(b))
		switch b {
		case "surf", "openmpi", "mpich2":
			c.Backends = append(c.Backends, b)
		default:
			return GridSpec{}, fmt.Errorf("grid: unknown backend %q (want surf, openmpi, mpich2)", b)
		}
	}
	slices.Sort(c.Backends)
	c.Backends = slices.Compact(c.Backends)
	if len(c.Backends) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one backend")
	}

	// Models only cross with the surf backend; without it they are inert
	// and drop out. With it, the implicit default becomes explicit.
	c.Models = nil
	if slices.Contains(c.Backends, "surf") {
		for _, m := range spec.Models {
			m = strings.ToLower(strings.TrimSpace(m))
			switch m {
			case "piecewise", "bestfit", "default", "ideal":
				c.Models = append(c.Models, m)
			default:
				return GridSpec{}, fmt.Errorf("grid: unknown model %q (want piecewise, bestfit, default, ideal)", m)
			}
		}
		if len(c.Models) == 0 {
			c.Models = []string{"piecewise"}
		}
		slices.Sort(c.Models)
		c.Models = slices.Compact(c.Models)
	}

	c.Topologies = nil
	for _, topo := range spec.Topologies {
		if topo = strings.ToLower(strings.TrimSpace(topo)); topo != "" {
			c.Topologies = append(c.Topologies, topo)
		}
	}
	slices.Sort(c.Topologies)
	c.Topologies = slices.Compact(c.Topologies)
	if len(c.Topologies) > 0 {
		c.Platform = "" // ignored when a topology axis is present
	} else if c.Platform = strings.ToLower(strings.TrimSpace(spec.Platform)); c.Platform == "" {
		c.Platform = "griffon"
	}

	c.Placements = nil
	for _, pl := range spec.Placements {
		canonical, err := placement.Normalize(pl)
		if err != nil {
			return GridSpec{}, fmt.Errorf("grid: %w", err)
		}
		c.Placements = append(c.Placements, canonical)
	}
	slices.Sort(c.Placements)
	c.Placements = slices.Compact(c.Placements)

	algos, err := smpi.ParseAlgorithms(spec.Collectives)
	if err != nil {
		return GridSpec{}, fmt.Errorf("grid: %w", err)
	}
	// Summary renders the non-default fields as space-separated "op=algo"
	// pairs in a fixed field order; re-joined with commas it round-trips
	// through ParseAlgorithms, making it the canonical spelling ("auto"
	// becomes every collective pinned to auto, "default" becomes "").
	c.Collectives = strings.ReplaceAll(algos.Summary(), " ", ",")

	c.Dynamics = nil
	for _, d := range spec.Dynamics {
		sched, err := dynamics.Parse(d)
		if err != nil {
			return GridSpec{}, fmt.Errorf("grid: dynamics %q: %w", d, err)
		}
		if sched == nil {
			c.Dynamics = append(c.Dynamics, "")
		} else {
			c.Dynamics = append(c.Dynamics, sched.String())
		}
	}
	slices.Sort(c.Dynamics)
	c.Dynamics = slices.Compact(c.Dynamics)
	if len(c.Dynamics) == 1 && c.Dynamics[0] == "" {
		c.Dynamics = nil // an explicit all-static axis is no axis
	}

	// Reuse the shard validation; the points themselves don't matter here.
	if _, err := shardSlice(nil, c.ShardIndex, c.ShardCount); err != nil {
		return GridSpec{}, err
	}
	if c.ShardCount == 1 {
		c.ShardIndex, c.ShardCount = 0, 0 // 1 shard of 1 is the whole grid
	}
	return c, nil
}

// CampaignKey returns the campaign's fingerprint-input: a stable hash of
// the canonicalized spec plus the campaign seed. Identical (spec, seed)
// pairs produce bit-identical summaries at any -parallel (the repo's
// determinism contract), so a result cache keyed by this value can serve
// hits without re-simulating and provably never serves a wrong answer.
// Stats is part of the key because it changes what the summary contains
// (per-job counter maps), even though it never moves the fingerprint.
func (spec GridSpec) CampaignKey(seed uint64) (string, error) {
	c, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	blob, err := json.Marshal(struct {
		Spec GridSpec `json:"spec"`
		Seed uint64   `json:"seed"`
	}{c, seed})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob)), nil
}
