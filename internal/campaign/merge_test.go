package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// shardRun runs jobs[lo:hi] as its own campaign, the way a shard worker
// would: job IDs and the campaign seed are those of the full grid, so every
// job's derived seed matches the unsharded run.
func shardRun(t *testing.T, seed uint64, jobs []Job, lo, hi int) *Summary {
	t.Helper()
	sum := Run(Options{Workers: 2, Seed: seed}, jobs[lo:hi])
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestMergeShardsMatchesUnsharded(t *testing.T) {
	const n = 17 // odd on purpose: shards get unequal sizes
	full := Run(Options{Workers: 3, Seed: 42}, noisyJobs(n))
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 5} {
		parts := make([]*Summary, shards)
		for i := range parts {
			lo, hi := i*n/shards, (i+1)*n/shards
			parts[i] = shardRun(t, 42, noisyJobs(n), lo, hi)
		}
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got, want := merged.Fingerprint(), full.Fingerprint(); got != want {
			t.Errorf("shards=%d: merged fingerprint %s, want unsharded %s", shards, got, want)
		}
		if merged.Jobs != n || merged.TotalSimulated != full.TotalSimulated || merged.MaxSimulated != full.MaxSimulated {
			t.Errorf("shards=%d: aggregates diverge: jobs=%d total=%v max=%v vs %d/%v/%v",
				shards, merged.Jobs, merged.TotalSimulated, merged.MaxSimulated,
				full.Jobs, full.TotalSimulated, full.MaxSimulated)
		}
	}
}

// TestMergeAcrossJSONBoundary: shard summaries that traveled between
// processes as JSON (losing their live Err values) still merge and
// fingerprint identically — including a failed job.
func TestMergeAcrossJSONBoundary(t *testing.T) {
	const n = 8
	mk := func() []Job {
		jobs := noisyJobs(n)
		jobs[5].Run = func(*Ctx) (*Outcome, error) { return nil, fmt.Errorf("scenario broken") }
		return jobs
	}
	full := Run(Options{Workers: 2, Seed: 6}, mk())
	roundtrip := func(s *Summary) *Summary {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var back Summary
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		return &back
	}
	jobs := mk()
	a := Run(Options{Workers: 2, Seed: 6}, jobs[:4])
	b := Run(Options{Workers: 2, Seed: 6}, jobs[4:])
	merged, err := Merge(roundtrip(a), roundtrip(b))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Fingerprint(), full.Fingerprint(); got != want {
		t.Errorf("post-JSON merged fingerprint %s, want %s", got, want)
	}
	if merged.Failed != 1 {
		t.Errorf("failed = %d, want 1 (rehydrated from the JSON error string)", merged.Failed)
	}
}

func TestMergeEmptyShardOK(t *testing.T) {
	full := Run(Options{Workers: 2, Seed: 9}, noisyJobs(3))
	empty := Run(Options{Workers: 2, Seed: 9}, nil)
	merged, err := Merge(full, empty)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Fingerprint() != full.Fingerprint() {
		t.Error("merging an empty shard moved the fingerprint")
	}
}

func TestMergeRejections(t *testing.T) {
	ok := Run(Options{Workers: 1, Seed: 1}, noisyJobs(2))
	otherSeed := Run(Options{Workers: 1, Seed: 2}, noisyJobs(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := RunAll(ctx, Options{Workers: 1, Seed: 1}, noisyJobs(2))

	cases := []struct {
		name string
		in   []*Summary
		want string
	}{
		{"none", nil, "zero summaries"},
		{"nil part", []*Summary{ok, nil}, "is nil"},
		{"seed mismatch", []*Summary{ok, otherSeed}, "seed"},
		{"canceled part", []*Summary{ok, canceled}, "canceled"},
		{"overlapping jobs", []*Summary{ok, ok}, "more than one part"},
	}
	for _, tc := range cases {
		if _, err := Merge(tc.in...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
