package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
)

// Canonicalize returns the spec's canonical form: two specs that expand to
// the same set of simulations — differing only in axis order, duplicate
// entries, case, surrounding whitespace, spelled-out defaults, or alias
// spellings ("round-robin" for "rr", "0.002s" for "2ms" in a dynamics
// schedule) — canonicalize to the same value, and a canonical spec expands
// its axes in a fixed (sorted) order regardless of how the caller listed
// them.
//
// This is what makes result caching by fingerprint-input sound end to end:
// the campaign service runs the canonical spec, so its cache key (see
// CampaignKey) and the jobs it actually executes are derived from one
// normalized value — semantically equal requests hit the same cache entry
// AND would have produced byte-identical summaries.
//
// It is a view of the one validation pass (see validate), so an invalid
// spec fails here exactly as it fails to run.
func (spec GridSpec) Canonicalize() (GridSpec, error) {
	g, err := spec.validate()
	if err != nil {
		return GridSpec{}, err
	}
	return g.canonical(), nil
}

// canonical is the validated spec with every axis sorted and compacted.
func (g *grid) canonical() GridSpec {
	c := g.GridSpec
	c.Procs, c.Sizes = sortedSet(c.Procs), sortedSet(c.Sizes)
	c.Models, c.Backends = sortedSet(c.Models), sortedSet(c.Backends)
	c.Topologies, c.Placements = sortedSet(c.Topologies), sortedSet(c.Placements)
	c.Dynamics = sortedSet(c.Dynamics)
	if len(c.Dynamics) == 1 && c.Dynamics[0] == "" {
		c.Dynamics = nil // an explicit all-static axis is no axis
	}
	if c.ShardCount == 1 {
		c.ShardIndex, c.ShardCount = 0, 0 // 1 shard of 1 is the whole grid
	}
	return c
}

// sortedSet returns an axis's distinct values in order, in a fresh slice
// (the caller still owns the original, which a validated grid aliases).
func sortedSet[T cmp.Ordered](axis []T) []T {
	axis = slices.Clone(axis)
	slices.Sort(axis)
	return slices.Compact(axis)
}

// key hashes a canonical spec and the campaign seed.
func (c GridSpec) key(seed uint64) (string, error) {
	blob, err := json.Marshal(struct {
		Spec GridSpec `json:"spec"`
		Seed uint64   `json:"seed"`
	}{c, seed})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob)), nil
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
	return c.key(seed)
}

// Resolve validates the spec once and returns everything a front end needs
// to admit it: its canonical form, its campaign key under seed, and how
// many simulations it holds (after shard slicing).
func (spec GridSpec) Resolve(seed uint64) (canonical GridSpec, key string, jobs int, err error) {
	g, err := spec.validate()
	if err != nil {
		return GridSpec{}, "", 0, err
	}
	canonical = g.canonical()
	key, err = canonical.key(seed)
	return canonical, key, len(g.points()), err
}
