package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
)

// driftSpecs are three spellings the batch CLI (which runs the spec as
// given) and the service (which runs its canonical form) used to disagree
// on: a pingpong without a procs axis, a padded upper-case back-end, and a
// mixed-case topology preset.
var driftSpecs = []GridSpec{
	{Op: "pingpong", Sizes: []int64{1024}, Backends: []string{"surf"}},
	{Op: "scatter", Procs: []int{4}, Sizes: []int64{1024}, Backends: []string{" SURF"}},
	{Op: "PingPong", Sizes: []int64{65536}, Backends: []string{" SURF "}, Topologies: []string{"FatTree16"}},
}

// tableSpecs is every spec the canonicalization tests know: the equivalent
// pair, shardSpec and each invalid mutation of it, and the drift cases.
// FuzzCanonicalize's seed corpus (testdata/fuzz/FuzzCanonicalize/table-NN)
// was generated from it.
func tableSpecs() []GridSpec {
	specs := append(equivalentSpecs[:], shardSpec())
	for _, tc := range invalidSpecs {
		spec := shardSpec()
		tc.mutate(&spec)
		specs = append(specs, spec)
	}
	return append(specs, driftSpecs...)
}

// TestBatchAndServiceAgree holds a library caller's view of a spec (its
// job count and GridCampaignOpts on the spec as given, as the figures run it)
// against the front ends' (the same on its canonical form, which smpigod
// and the batch CLI run): both accept it or both refuse it, both count the
// same jobs, a respelled single-point spec runs the very campaign its
// canonical form runs, and Figure 11's spec served as a campaign holds the
// figure's three series bit for bit.
func TestBatchAndServiceAgree(t *testing.T) {
	for _, spec := range tableSpecs() {
		_, _, n, err := spec.Resolve(0)
		c, cerr := spec.Canonicalize()
		if (err == nil) != (cerr == nil) {
			t.Errorf("%+v: Resolve err = %v but Canonicalize err = %v", spec, err, cerr)
		}
		if cerr != nil {
			continue
		}
		if _, _, cn, err := c.Resolve(0); err != nil || cn != n {
			t.Errorf("%+v: %d jobs as given, %d (err %v) in canonical form", spec, n, cn, err)
		}
	}
	e := env(t)
	for _, spec := range driftSpecs {
		c, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		given, err := e.GridCampaignOpts(spec, CampaignOptions{})
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		canonical, err := e.GridCampaignOpts(c, CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if given.Jobs != 1 || given.Failed != 0 || given.Fingerprint() != canonical.Fingerprint() {
			t.Errorf("%+v: %d jobs (%d failed), fingerprint %s as given, %s in canonical form",
				spec, given.Jobs, given.Failed, given.Fingerprint(), canonical.Fingerprint())
		}
	}

	if testing.Short() {
		return // a 16-process 4 MiB all-to-all, twice
	}
	fig11, err := GridSpec{Op: "alltoall", Procs: []int{16}, Sizes: []int64{4 * core.MiB},
		Backends: []string{"surf", "nocontention", "openmpi"}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	served, err := e.GridCampaignOpts(fig11, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, runs, err := perRankFigure(e, CampaignOptions{}, "Figure 11", "alltoall", 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range perRankColumns[:3] {
		i := slices.IndexFunc(served.Results, func(r campaign.Result) bool { return r.Tags["backend"] == c.backend })
		if i < 0 || served.Results[i].Outcome == nil {
			t.Fatalf("no %s result in the served Figure 11 campaign", c.backend)
		}
		for rank, want := range runs[j].PerRank {
			if got := served.Results[i].Outcome.Values[fmt.Sprintf("rank_%d", rank)]; got != want {
				t.Errorf("%s rank %d: served %v, Figure 11 %v", c.backend, rank, got, want)
			}
		}
	}
}

// respell returns the spec with every axis reversed and then repeated, and
// every name axis upper-cased and padded: a different spelling of the same
// campaign. Schedules carry case-sensitive link globs, so those keep their
// spelling.
func respell(spec GridSpec) GridSpec {
	shout := func(s string) string { return " \t" + strings.ToUpper(s) + " " }
	names := func(axis []string) []string {
		out := make([]string, len(axis))
		for i, s := range axis {
			out[i] = shout(s)
		}
		return twice(out)
	}
	spec.Op, spec.Platform, spec.Collectives = shout(spec.Op), shout(spec.Platform), shout(spec.Collectives)
	spec.Procs, spec.Sizes = twice(spec.Procs), twice(spec.Sizes)
	spec.Models, spec.Backends = names(spec.Models), names(spec.Backends)
	spec.Topologies, spec.Placements = names(spec.Topologies), names(spec.Placements)
	spec.Dynamics = twice(spec.Dynamics)
	return spec
}

func twice[T any](axis []T) []T {
	rev := slices.Clone(axis)
	slices.Reverse(rev)
	return append(rev, rev...)
}

// FuzzCanonicalize feeds GridSpec JSON — what smpigod parses on every
// request — to the one validation pass: no input panics; Canonicalize and
// Resolve accept the same specs and agree with each other;
// Canonicalize is idempotent; the canonical form holds the same number of
// jobs; and CampaignKey does not move under axis permutation, duplication,
// case or surrounding whitespace.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec GridSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		// Expansion is a cross product and nothing bounds it yet (ROADMAP,
		// smpigod admission): keep the fuzzer off the grids that only
		// exhaust memory.
		if points := (len(spec.Procs) + 1) * (len(spec.Sizes) + 1) * (len(spec.Models) + 1) * (len(spec.Backends) + 1) *
			(len(spec.Topologies) + 1) * (len(spec.Placements) + 1) * (len(spec.Dynamics) + 1); points > 1<<12 {
			return
		}
		rc, key, n, rerr := spec.Resolve(1)
		c, err := spec.Canonicalize()
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Resolve err = %v but Canonicalize err = %v", rerr, err)
		}
		if err != nil {
			return
		}
		if mustJSON(t, rc) != mustJSON(t, c) {
			t.Fatalf("Resolve = %+v, Canonicalize = %+v", rc, c)
		}
		cc, err := c.Canonicalize()
		if err != nil {
			t.Fatalf("canonical form %+v does not canonicalize: %v", c, err)
		}
		if a, b := mustJSON(t, c), mustJSON(t, cc); a != b {
			t.Fatalf("Canonicalize is not idempotent:\n once  %s\n twice %s", a, b)
		}
		if _, _, cn, err := c.Resolve(1); err != nil || cn != n {
			t.Fatalf("%d jobs as given, %d (err %v) in canonical form %+v", n, cn, err, c)
		}
		if k, err := spec.CampaignKey(1); err != nil || k != key {
			t.Fatalf("CampaignKey = %s (err %v), Resolve's key %s", k, err, key)
		}
		if rkey, err := respell(spec).CampaignKey(1); err != nil || rkey != key {
			t.Fatalf("respelled %+v keys %s (err %v), want %s", respell(spec), rkey, err, key)
		}
	})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
