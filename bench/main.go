// Command bench is the repository's end-to-end benchmark: five workloads
// driven through the entry points users have (experiments.Env.GridCampaignOpts,
// nas.DT + smpi.Run, service.Server.Handler), a handful of end-to-end
// metrics measured with tracing off, and a per-layer ledger (counters, a CPU
// profile attributed to internal/ packages, spans, layer probes) from a
// separate traced run. See README.md for the catalogue.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//	bench [-seed N] [-runs R] [-out FILE]                 every workload, R runs each, then the traced runs
//	bench -compare a.json b.json                          verdict per (workload, end-to-end metric)
//	bench -manifest                                       print BENCHMARK.json
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childProcs is the GOMAXPROCS every measuring child runs at, whatever the
// machine has: campaign and service pools use 2 workers, the service loop 2
// clients.
const childProcs = 2

// rounds is how many fresh processes one untraced run splits its measuring
// time over. Each sets up from nothing, so a run yields that many set-up
// times, peak RSS readings and round timings.
const rounds = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line (JSON)")
		seed         = flag.Uint64("seed", 1, "benchmark seed: drives every campaign seed and the service request sequence")
		seconds      = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		quick        = flag.Bool("quick", false, "smoke run: ~1% of the work, numbers meaningless")
		runs         = flag.Int("runs", 3, "full mode: untraced runs per workload, interleaved across workloads")
		out          = flag.String("out", "", "full mode: write the run set here, for -compare")
		compare      = flag.Bool("compare", false, "compare two run sets: -compare a.json b.json")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json")
		writeExp     = flag.Bool("write-expected", false, "full mode: print expected.json from this run's outputs (use with -seed 1)")
		child        = flag.String("child", "", "internal: measure|probes in this process and report to the parent")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *workloadName, *seed, *seconds, *trace == 1, *quick)
	case *manifest:
		err = printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two run-set files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *workloadName != "":
		err = contractMain(*workloadName, *seed, *seconds, *trace == 1, *quick)
	default:
		err = fullMain(*seed, *seconds, *runs, *quick, *out, *writeExp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// ---- child: one fresh process, one workload, one measurement ---------------

// childReport is what a child prints for its parent.
type childReport struct {
	FirstOpUnixNano int64              `json:"first_op_unix_nano"` // when set-up ended and the first timed op began
	SpanMS          map[string]float64 `json:"span_ms,omitempty"`
	OpMS            []float64          `json:"op_ms,omitempty"`
	WallS           float64            `json:"wall_s,omitempty"` // timed wall clock
	Failed          int                `json:"failed,omitempty"`
	Failures        []string           `json:"failures,omitempty"`
	AllocBytes      uint64             `json:"alloc_bytes,omitempty"`
	Mallocs         uint64             `json:"mallocs,omitempty"`
	GCCycles        uint32             `json:"gc_cycles,omitempty"`
	GCPauseNS       uint64             `json:"gc_pause_ns,omitempty"`
	PeakRSSKB       int64              `json:"peak_rss_kb,omitempty"`
	Counters        map[string]float64 `json:"counters,omitempty"`
	Info            map[string]float64 `json:"info,omitempty"`
	CPUShare        map[string]float64 `json:"cpu_share,omitempty"`
	Digest          string             `json:"digest,omitempty"`
	Fingerprint     string             `json:"fingerprint,omitempty"`
	Probes          map[string]float64 `json:"probes,omitempty"`
}

func childMain(kind, name string, seed uint64, seconds float64, traced, quick bool) error {
	var rep childReport
	switch kind {
	case "probes":
		scale := 1
		if quick {
			scale = 50
		}
		vals, err := runProbes(scale)
		if err != nil {
			return err
		}
		rep.Probes = vals
	case "measure":
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if err := measure(w, seed, seconds, traced, &rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(&rep)
}

func measure(w workload, seed uint64, seconds float64, traced bool, rep *childReport) error {
	spans := new(spanLog)
	r, err := w.setup(seed, traced, spans)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	endWarm := spans.begin("warm_op")
	if err := r.warm(); err != nil {
		return fmt.Errorf("warm op: %w", err)
	}
	endWarm()
	runtime.GC() // every child starts its timed ops from a collected heap

	var profile bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m measurement
	start := time.Now()
	rep.FirstOpUnixNano = start.UnixNano()
	endOps := spans.begin("ops")
	r.run(start.Add(time.Duration(seconds*float64(time.Second))), 2, &m)
	endOps()
	rep.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
		samples, err := parseProfile(profile.Bytes())
		if err != nil {
			return err
		}
		rep.CPUShare = cpuShares(samples)
	}

	rep.SpanMS = map[string]float64{
		"calibrate": spans.ms("calibrate"),
		"warm_op":   spans.ms("warm_op"),
		"ops":       spans.ms("ops"),
	}
	rep.OpMS, rep.Failed, rep.Failures = m.opMS, m.failed, m.failures
	rep.Counters, rep.Info, rep.Digest, rep.Fingerprint = m.counters, m.info, m.digest, m.fp
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.GCCycles = after.NumGC - before.NumGC
	rep.GCPauseNS = after.PauseTotalNs - before.PauseTotalNs
	rep.PeakRSSKB, err = peakRSSKB()
	return err
}

// peakRSSKB returns this process's resident-set high-water mark from
// /proc/self/status (VmHWM). getrusage's ru_maxrss will not do: across
// fork+exec it starts at the parent's high-water mark, so a small child
// would report its parent.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// spawn re-executes this binary as a measuring child with a fresh heap and
// returns its report plus its set-up time: from the moment the parent
// started it to the moment its first timed op began.
func spawn(kind, name string, seed uint64, seconds float64, traced, quick bool) (*childReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr, "-quick="+strconv.FormatBool(quick))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	started := time.Now()
	outBytes, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, 0, fmt.Errorf("%s child for %q: %w", kind, name, err)
	}
	var rep childReport
	if err := json.Unmarshal(outBytes, &rep); err != nil {
		return nil, 0, fmt.Errorf("%s child for %q: bad report: %w", kind, name, err)
	}
	return &rep, float64(rep.FirstOpUnixNano-started.UnixNano()) / 1e9, nil
}

// ---- one run of one workload -------------------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run: the contract's result object plus what the full
// mode keeps for its report.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Noisy       bool                   `json:"noisy,omitempty"` // machine reference kernels drifted > 10% across the run
	Digest      string                 `json:"digest"`
	Fingerprint string                 `json:"fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Notes are facts printed beside the metrics: quartiles, op count, tail.
	Notes map[string]float64 `json:"notes,omitempty"`
}

// set records one metric with the unit the catalogue gives it.
func (r *runResult) set(name string, v float64) { r.Metrics[name] = metricValue{v, unitOf(name)} }

// runWorkload performs one run. Untraced, it splits the measuring time over
// `rounds` fresh children and reports every end-to-end metric. Traced, it
// runs one untraced child, one traced child and the layer probes, and
// reports every per-layer metric.
func runWorkload(w workload, seed uint64, seconds float64, traced, quick bool) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metricValue{}, Notes: map[string]float64{}}
	refsBefore := machineRefs()

	var reps []*childReport
	var setups []float64
	run := func(secs float64, tr bool) (*childReport, error) {
		rep, setup, err := spawn("measure", w.name, seed, secs, tr, quick)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		setups = append(setups, setup)
		return rep, nil
	}

	if !traced {
		n := rounds
		if quick {
			n = 1
		}
		for i := 0; i < n; i++ {
			if _, err := run(seconds/float64(n), false); err != nil {
				return nil, err
			}
		}
		// Interference on a shared machine comes in bursts of seconds and
		// only ever slows a round down, so the timing metrics take the best
		// round: the lowest of the rounds' median op times and the highest
		// of their throughputs. Memory does not suffer from bursts; a round's
		// peak RSS scatters with GC timing, so the rounds are averaged.
		var ops, roundMS, roundRate []float64
		var alloc, rss float64
		for _, rep := range reps {
			ops = append(ops, rep.OpMS...)
			roundMS = append(roundMS, median(rep.OpMS))
			roundRate = append(roundRate, float64(len(rep.OpMS))/rep.WallS)
			alloc += float64(rep.AllocBytes)
			rss += float64(rep.PeakRSSKB) / 1024
		}
		set := res.set
		set("setup_s", median(setups))
		set("op_ms", slices.Min(roundMS))
		set("ops_per_s", slices.Max(roundRate))
		set("alloc_mb_per_op", alloc/1e6/float64(len(ops)))
		set("peak_rss_mb", rss/float64(len(reps)))
		sorted := sortedCopy(ops)
		res.Notes["ops"] = float64(len(ops))
		res.Notes["op_ms_q1"] = quantile(sorted, 0.25)
		res.Notes["op_ms_median"] = quantile(sorted, 0.5)
		res.Notes["op_ms_q3"] = quantile(sorted, 0.75)
		res.Notes["op_ms_tail"], res.Notes["op_ms_tail_pct"] = tail(ops)
		res.Notes["op_ms_worst_round"] = slices.Max(roundMS)
		res.Notes["jobs_per_s"] = reps[0].Info["jobs_per_op"] * slices.Max(roundRate)
	} else {
		plain, err := run(seconds/3, false)
		if err != nil {
			return nil, err
		}
		tr, err := run(seconds/2, true)
		if err != nil {
			return nil, err
		}
		pr, _, err := spawn("probes", w.name, seed, 0, false, quick)
		if err != nil {
			return nil, err
		}
		perLayerMetrics(res, plain, tr, pr.Probes, refsBefore)
	}

	for _, rep := range reps {
		res.Attempted += len(rep.OpMS)
		res.Failed += rep.Failed
		res.Failures = append(res.Failures, rep.Failures...)
	}
	res.Digest, res.Fingerprint = reps[0].Digest, reps[0].Fingerprint
	for _, rep := range reps[1:] {
		if rep.Digest != res.Digest || rep.Fingerprint != res.Fingerprint {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("outputs differ between processes: %s/%s vs %s/%s", res.Digest, res.Fingerprint, rep.Digest, rep.Fingerprint))
		}
	}
	if msg := checkExpected(w.name, seed, res.Digest, res.Fingerprint, reps[0].Info); msg != "" {
		res.Failed++
		res.Failures = append(res.Failures, msg)
	}
	res.Correct = res.Failed == 0

	drift := refDrift(refsBefore, machineRefs())
	res.Noisy = drift > 0.10
	if res.Noisy {
		fmt.Fprintf(os.Stderr, "bench: %s: a machine reference kernel drifted %.0f%% across the run: noisy\n", w.name, 100*drift)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.name, f)
	}
	return res, nil
}

// perLayerMetrics fills every per-layer metric from an untraced child, a
// traced child and the probes.
func perLayerMetrics(res *runResult, plain, tr *childReport, probeVals, refs map[string]float64) {
	set := res.set
	ops := float64(max(len(tr.OpMS), 1))

	for _, c := range layerCounters {
		set(c, tr.Counters[c]/ops)
	}
	set("lmm.component_vars_max", tr.Counters["lmm.component_vars_max"])
	stale := 0.0
	if pushes := tr.Counters["surf.heap_pushes"]; pushes > 0 {
		stale = tr.Counters["surf.heap_stale"] / pushes
	}
	set("surf.heap_stale_ratio", stale)

	set("go.mallocs_per_op", float64(tr.Mallocs)/ops)
	set("go.gc_cycles_per_op", float64(tr.GCCycles)/ops)
	set("go.gc_pause_ms_per_op", float64(tr.GCPauseNS)/1e6/ops)
	for _, l := range ledgerLayers {
		set("cpu_share."+l, tr.CPUShare[l])
	}
	set("span.calibrate_ms", tr.SpanMS["calibrate"])
	set("span.warm_op_ms", tr.SpanMS["warm_op"])
	set("span.op_ms", tr.SpanMS["ops"]/ops)
	set("trace.overhead_ratio", median(tr.OpMS)/median(plain.OpMS))

	tailMS, tailPct := tail(plain.OpMS)
	set("e2e.op_ms_tail", tailMS)
	set("e2e.op_ms_tail_pct", tailPct)
	set("e2e.jobs_per_s", plain.Info["jobs_per_op"]*float64(len(plain.OpMS))/plain.WallS)
	set("experiments.sim_err_pct", plain.Info["sim_err_pct"])
	set("service.cache_hit_ratio", plain.Info["cache_hit_ratio"])

	for _, p := range probeDefs {
		set(p.name, probeVals[p.name])
	}
	for _, r := range machineRefNames {
		set(r, refs[r])
	}
}

// ---- the contract: one workload, one result line -----------------------------

func contractMain(name string, seed uint64, seconds float64, traced, quick bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, seed, seconds, traced, quick)
	if err != nil {
		return err
	}
	printRun(os.Stderr, res)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func printRun(f *os.File, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s seed=%d traced=%v attempted=%d failed=%d failed_frac=%g digest=%s fingerprint=%s\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Digest, res.Fingerprint)
	for _, n := range names {
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	notes := make([]string, 0, len(res.Notes))
	for n := range res.Notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(f, "  (%s %.6g)\n", n, res.Notes[n])
	}
}

// ---- expected outputs --------------------------------------------------------

//go:embed expected.json
var expectedJSON []byte

// expectation is one workload's committed output. Digest holds at any seed;
// Fingerprint is the seeded one (Summary.Fingerprint, DT's checksum, the
// first service answer) at the file's seed.
type expectation struct {
	Digest      string   `json:"digest"`
	Fingerprint string   `json:"fingerprint"`
	SimErrPct   *float64 `json:"sim_err_pct,omitempty"`
}

type expectedFile struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]expectation `json:"workloads"`
}

// checkExpected returns a failure message when a run's outputs differ from
// expected.json, or "" when they agree.
func checkExpected(name string, seed uint64, digest, fp string, info map[string]float64) string {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return fmt.Sprintf("expected.json: %v", err)
	}
	want, ok := exp.Workloads[name]
	switch {
	case !ok:
		return "expected.json has no entry for " + name
	case digest != want.Digest:
		return fmt.Sprintf("output digest %s, expected %s", digest, want.Digest)
	case seed == exp.Seed && fp != want.Fingerprint:
		return fmt.Sprintf("fingerprint %s at seed %d, expected %s", fp, seed, want.Fingerprint)
	case want.SimErrPct != nil && info["sim_err_pct"] != *want.SimErrPct:
		return fmt.Sprintf("sim_err_pct %v, expected %v", info["sim_err_pct"], *want.SimErrPct)
	}
	return ""
}

// ---- full mode: every workload, several runs, then the ledger ----------------

// runSet is what -out writes and -compare reads.
type runSet struct {
	Seed       uint64       `json:"seed"`
	Seconds    float64      `json:"seconds"`
	GOMAXPROCS int          `json:"gomaxprocs"` // of the measuring children
	NumCPU     int          `json:"nproc"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit"`
	Runs       []*runResult `json:"runs"`
}

func fullMain(seed uint64, seconds float64, runs int, quick bool, out string, writeExpected bool) error {
	if quick {
		seconds, runs = 0.3, 1
	}
	set := &runSet{Seed: seed, Seconds: seconds, GOMAXPROCS: childProcs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit()}
	fmt.Printf("seed=%d seconds=%g runs=%d GOMAXPROCS=%d nproc=%d %s commit=%s\n", seed, seconds, runs, childProcs, set.NumCPU, set.GoVersion, set.Commit)
	failed := false
	do := func(w workload, traced bool) error {
		res, err := runWorkload(w, seed, seconds, traced, quick)
		if err != nil {
			return err
		}
		printRun(os.Stdout, res)
		set.Runs = append(set.Runs, res)
		failed = failed || !res.Correct
		return nil
	}
	// Runs are interleaved across workloads, so slow drift of the machine
	// reaches all of them alike.
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			if err := do(w, false); err != nil {
				return err
			}
		}
	}
	for _, w := range workloads {
		if err := do(w, true); err != nil {
			return err
		}
	}
	if writeExpected {
		exp := expectedFile{Seed: seed, Workloads: map[string]expectation{}}
		for _, res := range set.Runs {
			if !res.Traced { // the traced run carries experiments.sim_err_pct
				continue
			}
			e := expectation{Digest: res.Digest, Fingerprint: res.Fingerprint}
			if m := res.Metrics["experiments.sim_err_pct"]; m.Value != 0 {
				e.SimErrPct = &m.Value
			}
			exp.Workloads[res.Workload] = e
		}
		blob, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("expected.json:\n%s\n", blob)
	}
	if out != "" {
		blob, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("outputs incorrect or operations failed (failed_frac > 0)")
	}
	return nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
