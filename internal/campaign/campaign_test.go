package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"smpigo/internal/core"
)

// noisyJobs builds n jobs whose outcomes depend only on the job's derived
// seed: any scheduling sensitivity would show up as a fingerprint change.
func noisyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:   fmt.Sprintf("job-%03d", i),
			Tags: map[string]string{"i": fmt.Sprint(i)},
			Run: func(ctx *Ctx) (*Outcome, error) {
				// Consume a seed-dependent amount of the stream so jobs do
				// unequal work and finish out of submission order.
				draws := 1 + int(ctx.RNG.Uint64()%64)
				var acc float64
				for d := 0; d < draws; d++ {
					acc += ctx.RNG.Float64()
				}
				return &Outcome{
					SimulatedTime: core.Time(acc),
					Values:        map[string]float64{"acc": acc, "draws": float64(draws)},
				}, nil
			},
		}
	}
	return jobs
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Run(Options{Workers: 1, Seed: 7}, noisyJobs(40))
	if err := base.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		sum := Run(Options{Workers: workers, Seed: 7}, noisyJobs(40))
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if got, want := sum.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("workers=%d fingerprint %s, want %s (workers=1)", workers, got, want)
		}
		for i := range sum.Results {
			a, b := base.Results[i].Outcome, sum.Results[i].Outcome
			if a.SimulatedTime != b.SimulatedTime {
				t.Errorf("workers=%d job %s: simulated %v vs %v",
					workers, sum.Results[i].ID, b.SimulatedTime, a.SimulatedTime)
			}
		}
		if sum.TotalSimulated != base.TotalSimulated || sum.MaxSimulated != base.MaxSimulated {
			t.Errorf("workers=%d aggregates differ: total %v/%v max %v/%v",
				workers, sum.TotalSimulated, base.TotalSimulated, sum.MaxSimulated, base.MaxSimulated)
		}
	}
}

func TestSeedIndependentOfJobOrder(t *testing.T) {
	// A job's seed is a pure function of (campaign seed, job ID): submitting
	// the jobs in a different order must hand each the same seed.
	fwd := Run(Options{Workers: 3, Seed: 11}, noisyJobs(10))
	rev := make([]Job, 10)
	for i, j := range noisyJobs(10) {
		rev[len(rev)-1-i] = j
	}
	bwd := Run(Options{Workers: 3, Seed: 11}, rev)
	bySeed := make(map[string]uint64)
	for _, r := range fwd.Results {
		bySeed[r.ID] = r.Seed
	}
	for _, r := range bwd.Results {
		if bySeed[r.ID] != r.Seed {
			t.Errorf("job %s seed %d after reorder, want %d", r.ID, r.Seed, bySeed[r.ID])
		}
	}
}

func TestDifferentCampaignSeedsDiffer(t *testing.T) {
	a := Run(Options{Workers: 2, Seed: 1}, noisyJobs(8))
	b := Run(Options{Workers: 2, Seed: 2}, noisyJobs(8))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("campaigns with different seeds produced identical fingerprints")
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := noisyJobs(6)
	jobs[2].Run = func(ctx *Ctx) (*Outcome, error) {
		panic("boom at " + ctx.ID)
	}
	sum := Run(Options{Workers: 4, Seed: 3}, jobs)
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1", sum.Failed)
	}
	r := sum.Results[2]
	if !r.Panicked || r.Err == nil || r.Outcome != nil {
		t.Errorf("panicked job: panicked=%v err=%v outcome=%v", r.Panicked, r.Err, r.Outcome)
	}
	if !strings.Contains(r.Err.Error(), "boom at job-002") {
		t.Errorf("panic error lost the payload: %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "campaign_test.go") {
		t.Errorf("panic error lost the stack: %.120s", r.Err.Error())
	}
	for i, other := range sum.Results {
		if i != 2 && other.Err != nil {
			t.Errorf("job %s failed alongside the panicking job: %v", other.ID, other.Err)
		}
	}
	if sum.Err() == nil {
		t.Error("summary Err() should surface the panic")
	}
	if _, err := sum.Outcomes(); err == nil {
		t.Error("Outcomes() should refuse a campaign with failures")
	}
}

func TestErrorIsolationAndOrder(t *testing.T) {
	sentinel := errors.New("scenario unreachable")
	jobs := noisyJobs(5)
	jobs[4].Run = func(*Ctx) (*Outcome, error) { return nil, sentinel }
	sum := Run(Options{Workers: 2, Seed: 9}, jobs)
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1", sum.Failed)
	}
	if !errors.Is(sum.Results[4].Err, sentinel) {
		t.Errorf("error not wrapped: %v", sum.Results[4].Err)
	}
	for i, r := range sum.Results {
		if want := fmt.Sprintf("job-%03d", i); r.ID != want {
			t.Errorf("result %d is %s, want %s (submission order)", i, r.ID, want)
		}
	}
}

func TestAggregation(t *testing.T) {
	times := []float64{0.5, 2.5, 1.0}
	jobs := make([]Job, len(times))
	for i, d := range times {
		jobs[i] = Job{
			ID: fmt.Sprintf("t=%v", d),
			Run: func(*Ctx) (*Outcome, error) {
				return &Outcome{SimulatedTime: core.Time(d)}, nil
			},
		}
	}
	sum := Run(Options{Workers: 3, Seed: 0}, jobs)
	if err := sum.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.TotalSimulated != 4.0 {
		t.Errorf("total simulated %v, want 4.0", sum.TotalSimulated)
	}
	if sum.MaxSimulated != 2.5 {
		t.Errorf("max simulated %v, want 2.5", sum.MaxSimulated)
	}
	if sum.Jobs != 3 || sum.Failed != 0 {
		t.Errorf("jobs=%d failed=%d", sum.Jobs, sum.Failed)
	}
}

func TestDuplicateJobIDsRejected(t *testing.T) {
	jobs := noisyJobs(3)
	jobs[2].ID = jobs[0].ID
	sum := Run(Options{Workers: 2, Seed: 5}, jobs)
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (the duplicate)", sum.Failed)
	}
	if err := sum.Results[2].Err; err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate job error = %v", err)
	}
	if sum.Results[0].Err != nil {
		t.Errorf("original job should run: %v", sum.Results[0].Err)
	}
}

func TestJSONRoundTrips(t *testing.T) {
	sum := Run(Options{Workers: 2, Seed: 13}, noisyJobs(4))
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed": 13`, `"jobs": 4`, `"job-000"`, `"total_simulated_s"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s:\n%.400s", want, data)
		}
	}
}

func TestEmptyCampaign(t *testing.T) {
	sum := Run(Options{Workers: 4, Seed: 1}, nil)
	if sum.Jobs != 0 || sum.Failed != 0 || sum.Err() != nil {
		t.Errorf("empty campaign: %+v", sum)
	}
}
