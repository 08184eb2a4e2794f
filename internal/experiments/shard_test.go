package experiments

import (
	"strings"
	"testing"

	"smpigo/internal/campaign"
)

// shardSpec is a small real grid (2 sizes × 2 models = 4 surf pingpong
// jobs on the calibrated griffon cluster) cheap enough to run many times.
func shardSpec() GridSpec {
	return GridSpec{
		Op:       "pingpong",
		Procs:    []int{2},
		Sizes:    []int64{64 * 1024, 1024 * 1024},
		Models:   []string{"piecewise", "bestfit"},
		Backends: []string{"surf"},
	}
}

func TestShardMergeMatchesUnsharded(t *testing.T) {
	e := env(t)
	seed := uint64(31)
	run := func(spec GridSpec) *campaign.Summary {
		t.Helper()
		sum, err := e.GridCampaignOpts(spec, CampaignOptions{Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	full := run(shardSpec())
	if full.Jobs != 4 {
		t.Fatalf("expected a 4-job grid, got %d", full.Jobs)
	}
	// Shard counts that divide the grid evenly, unevenly, and beyond its
	// size (6 shards of 4 jobs: two shards come back empty).
	for _, n := range []int{2, 3, 6} {
		parts := make([]*campaign.Summary, n)
		total := 0
		for i := range parts {
			spec := shardSpec()
			spec.ShardIndex, spec.ShardCount = i, n
			parts[i] = run(spec)
			total += parts[i].Jobs
		}
		if total != full.Jobs {
			t.Fatalf("n=%d: shards hold %d jobs, want %d (ranges must tile the grid)", n, total, full.Jobs)
		}
		merged, err := campaign.Merge(parts...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := merged.Fingerprint(), full.Fingerprint(); got != want {
			t.Errorf("n=%d: merged fingerprint %s, want unsharded %s", n, got, want)
		}
	}
}

func TestShardExpansionEdgeCases(t *testing.T) {
	e := env(t)
	// n beyond the grid: every job still runs exactly once, and the surplus
	// shards come back empty (interleaved by the balanced split) rather
	// than erroring.
	total, empty := 0, 0
	for i := 0; i < 6; i++ {
		spec := shardSpec()
		spec.ShardIndex, spec.ShardCount = i, 6
		sum, err := e.GridCampaignOpts(spec, CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += sum.Jobs
		if sum.Jobs == 0 {
			empty++
		}
	}
	if total != 4 || empty != 2 {
		t.Errorf("6 shards of a 4-job grid: %d jobs total, %d empty shards; want 4 and 2", total, empty)
	}

	for _, tc := range []struct {
		index, count int
		want         string
	}{
		{2, 2, "out of range"},
		{-1, 2, "out of range"},
		{1, 0, "without a shard count"},
		{0, -3, "negative shard count"},
	} {
		spec := shardSpec()
		spec.ShardIndex, spec.ShardCount = tc.index, tc.count
		if _, err := e.GridCampaignOpts(spec, CampaignOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("shard %d/%d: err = %v, want mention of %q", tc.index, tc.count, err, tc.want)
		}
	}
	// The "i/n" shorthand has no spelling of "unsharded": a count below 1
	// is refused before it reaches a spec, where 0 would run the whole grid.
	for _, s := range []string{"0/0", "1/0", "0/-2"} {
		if i, n, err := ParseShard(s); err == nil || !strings.Contains(err.Error(), "want at least 1") {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want a count error", s, i, n, err)
		}
	}
}

// equivalentSpecs are two spellings of one campaign: axis order, duplicates,
// case, padding, a spelled-out default and a placement alias differ.
var equivalentSpecs = [2]GridSpec{
	{
		Op:         "Alltoall",
		Procs:      []int{16, 8, 16},
		Sizes:      []int64{1 << 20, 1 << 16},
		Backends:   []string{"surf", " NoContention "},
		Topologies: []string{"torus16", "fattree16"},
		Placements: []string{"round-robin", "block"},
	},
	{
		Op:         "alltoall",
		Procs:      []int{8, 16},
		Sizes:      []int64{1 << 16, 1 << 20},
		Models:     []string{"piecewise"}, // the implicit surf default, spelled out
		Backends:   []string{"nocontention", "SURF"},
		Topologies: []string{"fattree16", "torus16"},
		Placements: []string{"block", "rr"},
	},
}

func TestCanonicalizeCollapsesEquivalentSpecs(t *testing.T) {
	a, b := equivalentSpecs[0], equivalentSpecs[1]
	ca, err := a.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ka, err := a.CampaignKey(7)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CampaignKey(7)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("semantically equal specs key differently:\n  %+v -> %s\n  %+v -> %s", ca, ka, cb, kb)
	}

	// The canonical spec must expand to the same job set as the original —
	// the cache-safety argument needs run-what-you-keyed.
	e := env(t)
	seed := uint64(7)
	sumA, err := e.GridCampaignOpts(ca, CampaignOptions{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := e.GridCampaignOpts(cb, CampaignOptions{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if sumA.Fingerprint() != sumB.Fingerprint() {
		t.Error("canonicalized equal specs ran different campaigns")
	}
}

func TestCampaignKeySeparates(t *testing.T) {
	spec := shardSpec()
	k1, err := spec.CampaignKey(1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := spec.CampaignKey(2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("different seeds share a campaign key")
	}

	shard := spec
	shard.ShardIndex, shard.ShardCount = 0, 2
	ks, err := shard.CampaignKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if ks == k1 {
		t.Error("sharding did not move the campaign key, but a shard holds different jobs")
	}

	// One shard of one is the whole grid, canonically unsharded.
	whole := spec
	whole.ShardIndex, whole.ShardCount = 0, 1
	kwhole, err := whole.CampaignKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if kwhole != k1 {
		t.Error("shard 0/1 keys differently from the unsharded spec")
	}
}

// invalidSpecs are shardSpec mutations no front end may accept, each with
// what the error must mention.
var invalidSpecs = []struct {
	mutate func(*GridSpec)
	want   string
}{
	{func(s *GridSpec) { s.Op = "gather" }, "unknown op"},
	{func(s *GridSpec) { s.Backends = []string{"mpi"} }, "unknown backend"},
	{func(s *GridSpec) { s.Models = []string{"cubic"} }, "unknown model"},
	{func(s *GridSpec) { s.Placements = []string{"diagonal"} }, "unknown policy"},
	{func(s *GridSpec) { s.Dynamics = []string{"@oops"} }, "dynamics"},
	{func(s *GridSpec) { s.ShardIndex = 3; s.ShardCount = 2 }, "out of range"},
	{func(s *GridSpec) { s.Sizes = nil }, "size"},
	{func(s *GridSpec) { s.Backends = nil }, "backend"},
	{func(s *GridSpec) { s.Topologies = []string{"torus16", "nonsense"} }, `"nonsense"`},
	{func(s *GridSpec) { s.Topologies = []string{"fattree:4x"} }, `"fattree:4x"`},
	{func(s *GridSpec) { s.Topologies = []string{"torus:4294967296x4294967296"} }, "host count overflows int"},
	{func(s *GridSpec) { s.Platform = "bogus" }, `"bogus"`},
	{func(s *GridSpec) { s.Collectives = "bcast=bogus" }, `unknown bcast algorithm "bogus" (want auto, binomial, flat, ring)`},
	{func(s *GridSpec) { s.Collectives = "frobnicate=yes" }, `unknown collective "frobnicate"`},
	{func(s *GridSpec) { s.Op, s.Procs = "scatter", []int{1} }, "below 2"},
	{func(s *GridSpec) { s.Sizes = []int64{0} }, "non-positive size"},
	{func(s *GridSpec) { s.Op, s.Sizes = "allreduce", []int64{12} }, "float64"},
	{func(s *GridSpec) {
		s.Backends = []string{"surf", "mpich2"}
		s.Dynamics = []string{"@1ms link griffon-* scale 0.5"}
	}, "require the surf backend"},
	{func(s *GridSpec) {
		s.Backends = []string{"surf", "NoContention"}
		s.Dynamics = []string{"@0s link griffon-* scale 0.5"}
	}, `require the surf backend, got "nocontention"`},
}

func TestCanonicalizeRejectsInvalid(t *testing.T) {
	for _, tc := range invalidSpecs {
		spec := shardSpec()
		tc.mutate(&spec)
		if _, err := spec.Canonicalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want mention of %q", spec, err, tc.want)
		}
	}
}

// TestCampaignKeyPinned pins literal campaign keys, so a change to GridSpec's
// fields or their JSON spelling that would silently invalidate every result
// cache and shard identity fails here first.
func TestCampaignKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec GridSpec
		seed uint64
		want string
	}{
		{"plain alltoall", GridSpec{
			Op:       "alltoall",
			Procs:    []int{8, 16},
			Sizes:    []int64{64 * 1024, 1024 * 1024},
			Backends: []string{"surf"},
		}, 1, "f17f0d4fbdeeff7ab4f952de1d08a074fb8967d8e02e7b9711d0e393347b78ac"},
		{"every axis, stats, shard 1/3", GridSpec{
			Op:          "alltoall",
			Procs:       []int{16},
			Sizes:       []int64{64 * 1024},
			Models:      []string{"piecewise", "default"},
			Backends:    []string{"surf"},
			Topologies:  []string{"fattree16", "torus16"},
			Placements:  []string{"block", "random"},
			Collectives: "alltoall=auto",
			Dynamics:    []string{"", "@2ms link fattree16-l2-* scale 0.5"},
			Stats:       true,
			ShardIndex:  1,
			ShardCount:  3,
		}, 7, "c6f8fb1974ad5e581f629f65cb076db7c08c714b4376d5d33ad550c220fde360"},
	} {
		got, err := tc.spec.CampaignKey(tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: campaign key %s, want %s", tc.name, got, tc.want)
		}
	}
}
