package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"smpigo/internal/core"
)

// Job is one independent unit of a campaign: typically a single simulation
// run at one point of a scenario grid.
type Job struct {
	// ID identifies the job inside its campaign; it must be unique because
	// it keys the job's derived RNG seed. Use a readable coordinate string
	// such as "fig8/scatter/size=4MiB/backend=surf".
	ID string
	// Tags are free-form scenario coordinates carried through to the result
	// (figure, operation, size, model, backend, ...).
	Tags map[string]string
	// Run executes the job. It must not retain ctx past its return. Any
	// panic is captured as the job's error without affecting other jobs.
	Run func(ctx *Ctx) (*Outcome, error)
}

// Ctx is what a running job receives: its seed.
type Ctx struct {
	// Seed is derived from the campaign seed and the job ID; pass it to
	// smpi.Config.Seed (or seed any other generator) so the job's stream is
	// independent of scheduling.
	Seed uint64
}

// Outcome is what a successful job reports back.
type Outcome struct {
	// SimulatedTime is the job's headline simulated quantity in seconds
	// (e.g. smpi.Report.SimulatedTime). Zero is fine for jobs where it is
	// meaningless.
	SimulatedTime core.Time `json:"simulated_s"`
	// Values holds named scalar results (error percentages, byte counts,
	// per-rank times flattened, ...). They participate in the campaign
	// fingerprint, so they must be deterministic.
	Values map[string]float64 `json:"values,omitempty"`
	// Payload carries an arbitrary rich result to the caller (a table, a
	// sample set). It is not serialized and not fingerprinted.
	Payload any `json:"-"`
	// Stats holds the job's kernel/model counters (obs.Stats.Flat()) when it
	// ran instrumented. They aggregate into Summary.Stats but — unlike
	// Values — never enter the fingerprint: counters describe how the
	// simulator worked, not what it computed, and must be free to change.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// Result couples a job with its outcome or failure.
type Result struct {
	ID   string            `json:"id"`
	Tags map[string]string `json:"tags,omitempty"`
	Seed uint64            `json:"seed"`
	// Outcome is nil when the job failed.
	Outcome *Outcome `json:"outcome,omitempty"`
	// Err is the job's failure (an error return or a captured panic).
	Err error `json:"-"`
	// Error mirrors Err as a string for JSON output.
	Error string `json:"error,omitempty"`
	// Panicked reports that Err came from a recovered panic.
	Panicked bool `json:"panicked,omitempty"`
	// Skipped reports that the job never ran because the campaign's context
	// was canceled first; Err carries the cancellation cause.
	Skipped bool `json:"skipped,omitempty"`
	// Wall is the job's wall-clock duration (nondeterministic; excluded
	// from the fingerprint).
	Wall time.Duration `json:"wall_ns"`
}

// Options parameterizes a campaign run.
type Options struct {
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// Seed is the campaign seed every job seed derives from.
	Seed uint64
	// OnResult, when non-nil, is invoked once per job as soon as its result
	// is known — in completion order, not submission order — so callers can
	// stream progress while the pool is still running. Invocations are
	// serialized (never concurrent with each other); the callback must not
	// block for long, since it stalls the worker that completed the job.
	// Cancellation-skipped jobs are reported too, after the pool drains.
	OnResult func(i int, r Result)
}

// Summary aggregates a completed campaign.
type Summary struct {
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Jobs    int    `json:"jobs"`
	Failed  int    `json:"failed"`
	// Canceled reports that the run's context was canceled before every job
	// ran: in-flight jobs finished, but jobs not yet handed to a worker were
	// skipped (their Results carry the context's error and Skipped=true).
	// A canceled summary is partial — its fingerprint must not be compared
	// against a completed run's, and result caches must not store it.
	Canceled bool `json:"canceled,omitempty"`
	// Skipped counts the jobs never started because of cancellation. They
	// are included in Failed as well (their Err is non-nil).
	Skipped int `json:"skipped,omitempty"`
	// Results are in job submission order, independent of completion order.
	Results []Result `json:"results"`
	// TotalSimulated and MaxSimulated aggregate the jobs' simulated times.
	TotalSimulated core.Time `json:"total_simulated_s"`
	MaxSimulated   core.Time `json:"max_simulated_s"`
	// Wall is the whole campaign's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// Stats aggregates the jobs' counter maps (see Outcome.Stats and
	// mergeStats). nil when no job reported counters. Not fingerprinted.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// mergeStats folds one job's counter map into an aggregate: keys are summed,
// except high-water marks — keys with the ".max" suffix — which take the
// maximum. Passing a nil aggregate allocates one; from may be nil.
func mergeStats(into, from map[string]float64) map[string]float64 {
	if len(from) == 0 {
		return into
	}
	if into == nil {
		into = make(map[string]float64, len(from))
	}
	for k, v := range from {
		if strings.HasSuffix(k, ".max") {
			if v > into[k] {
				into[k] = v
			}
		} else {
			into[k] += v
		}
	}
	return into
}

// Run executes jobs over the worker pool and returns the campaign summary.
// Job IDs must be unique; duplicates are reported as failures of the later
// job without running it.
func Run(opts Options, jobs []Job) *Summary {
	return RunAll(context.Background(), opts, jobs)
}

// RunAll is Run with cancellation: when ctx is canceled mid-campaign the
// pool drains — jobs already handed to a worker finish normally, jobs still
// queued are skipped with the context's error — and the summary comes back
// with Canceled set. A finished campaign is indistinguishable from a plain
// Run: cancellation after the last job was dispatched changes nothing.
func RunAll(ctx context.Context, opts Options, jobs []Job) *Summary {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	sum := &Summary{
		Seed:    opts.Seed,
		Workers: workers,
		Jobs:    len(jobs),
		Results: make([]Result, len(jobs)),
	}

	seen := make(map[string]bool, len(jobs))
	dup := make([]bool, len(jobs))
	for i, j := range jobs {
		if seen[j.ID] {
			dup[i] = true
		}
		seen[j.ID] = true
	}

	// emit serializes OnResult invocations across workers.
	var emitMu sync.Mutex
	emit := func(i int) {
		if opts.OnResult == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		opts.OnResult(i, sum.Results[i])
	}

	start := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sum.Results[i] = runOne(opts.Seed, jobs[i], dup[i])
				emit(i)
			}
		}()
	}
	next := 0
feed:
	for ; next < len(jobs); next++ {
		// With a worker waiting, both cases below are ready and select
		// picks at random: a canceled context must stop the feed first.
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if next < len(jobs) {
		sum.Canceled = true
		cause := context.Cause(ctx)
		for i := next; i < len(jobs); i++ {
			sum.Results[i] = Result{
				ID:      jobs[i].ID,
				Tags:    jobs[i].Tags,
				Seed:    core.DeriveSeed(opts.Seed, jobs[i].ID),
				Skipped: true,
				Err:     fmt.Errorf("campaign: job %q skipped: %w", jobs[i].ID, cause),
			}
			sum.Skipped++
			emit(i)
		}
	}
	sum.Wall = time.Since(start)
	for i := range sum.Results {
		if r := &sum.Results[i]; r.Err != nil {
			r.Error = r.Err.Error()
		}
	}
	sum.tally()
	return sum
}

// failed reports whether the job failed. Error (the string mirror) covers
// summaries that crossed a process boundary as JSON, where Err did not
// survive serialization.
func (r *Result) failed() bool { return r.Err != nil || r.Error != "" }

// tally computes Failed, TotalSimulated, MaxSimulated and Stats from
// Results, on a summary that has not counted them yet.
func (s *Summary) tally() {
	for i := range s.Results {
		r := &s.Results[i]
		if r.failed() {
			s.Failed++
			continue
		}
		if r.Outcome != nil {
			s.TotalSimulated += r.Outcome.SimulatedTime
			if r.Outcome.SimulatedTime > s.MaxSimulated {
				s.MaxSimulated = r.Outcome.SimulatedTime
			}
			s.Stats = mergeStats(s.Stats, r.Outcome.Stats)
		}
	}
}

// runOne executes a single job with panic isolation.
func runOne(seed uint64, job Job, duplicate bool) (res Result) {
	res.ID = job.ID
	res.Tags = job.Tags
	res.Seed = core.DeriveSeed(seed, job.ID)
	if duplicate {
		res.Err = fmt.Errorf("campaign: duplicate job ID %q", job.ID)
		return res
	}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Outcome = nil
			res.Panicked = true
			res.Err = fmt.Errorf("campaign: job %q panicked: %v\n%s", job.ID, r, debug.Stack())
		}
	}()
	out, err := job.Run(&Ctx{Seed: res.Seed})
	if err != nil {
		res.Err = fmt.Errorf("campaign: job %q: %w", job.ID, err)
		return res
	}
	res.Outcome = out
	return res
}

// Err returns the first failed job's error (in submission order), or nil.
func (s *Summary) Err() error {
	for i := range s.Results {
		if s.Results[i].Err != nil {
			return s.Results[i].Err
		}
	}
	return nil
}

// Outcomes returns the jobs' outcomes in submission order. It errors if any
// job failed, so callers can index positionally without nil checks.
func (s *Summary) Outcomes() ([]*Outcome, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	outs := make([]*Outcome, len(s.Results))
	for i := range s.Results {
		outs[i] = s.Results[i].Outcome
	}
	return outs, nil
}

// Fingerprint hashes every deterministic field of the summary — job IDs,
// seeds, simulated times, and outcome values in sorted key order — into a
// hex string. Two runs of the same campaign fingerprint identically no
// matter how many workers executed them; wall-clock fields are excluded.
func (s *Summary) Fingerprint() string {
	h := uint64(0x5ca1ab1e) ^ s.Seed
	mixStr := func(str string) {
		for i := 0; i < len(str); i++ {
			h = (h ^ uint64(str[i])) * 0x100000001b3
		}
	}
	mixU64 := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v >> shift & 0xff)) * 0x100000001b3
		}
	}
	for i := range s.Results {
		r := &s.Results[i]
		mixStr(r.ID)
		mixU64(r.Seed)
		if r.failed() {
			mixStr("failed")
			continue
		}
		if r.Outcome == nil {
			continue
		}
		mixU64(math.Float64bits(float64(r.Outcome.SimulatedTime)))
		keys := make([]string, 0, len(r.Outcome.Values))
		for k := range r.Outcome.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mixStr(k)
			mixU64(math.Float64bits(r.Outcome.Values[k]))
		}
	}
	return fmt.Sprintf("%016x", h)
}
