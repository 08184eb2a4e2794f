package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/nas"
	"smpigo/internal/obs"
	"smpigo/internal/smpi"
)

// A workload is one set of inputs. setup builds everything an op needs
// (the calibrated environment, platforms, servers) and returns a runner;
// the child times setup as a whole and then the runner's ops one by one.
type workload struct {
	name string
	why  string
	// setup receives the benchmark seed and whether the run is traced
	// (counters on). Workloads see the seed only through generated inputs.
	setup func(seed uint64, traced bool, spans *spanLog) (runner, error)
}

// runner executes timed ops. run measures until the deadline (at least
// minOps ops) and appends one host-time sample per op; close releases
// what setup built.
type runner interface {
	// warm runs one untimed op, so caches fill and lazy set-up finishes.
	warm() error
	run(deadline time.Time, minOps int, out *measurement)
	close()
}

// measurement is what a runner accumulates over its timed ops.
type measurement struct {
	opMS     []float64 // host milliseconds per op
	failed   int
	failures []string           // first few failure reasons
	counters map[string]float64 // traced counters, summed over ops
	info     map[string]float64 // per-workload facts (sim_err_pct, cache agreement, jobs per op)
	digest   string             // seed-free output digest of the ops
	fp       string             // seeded output fingerprint (identical on every op)
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// count adds v to counter k; a high-water mark (suffix "_max") keeps the
// largest value instead.
func (m *measurement) count(k string, v float64) {
	if m.counters == nil {
		m.counters = map[string]float64{}
	}
	if strings.HasSuffix(k, "_max") {
		m.counters[k] = math.Max(m.counters[k], v)
	} else {
		m.counters[k] += v
	}
}

// output records what an op computed: the first op's digest and fingerprint
// stand for the run, and every later op must reproduce them. It reports
// whether this was the first.
func (m *measurement) output(fp, digest string) (first bool) {
	if m.fp == "" {
		m.fp, m.digest = fp, digest
		return true
	}
	if fp != m.fp || digest != m.digest {
		m.fail("output drifted within the run: %s/%s then %s/%s", m.fp, m.digest, fp, digest)
	}
	return false
}

var workloads = []workload{
	{
		name: "a2a_payload",
		why:  "32-rank alltoall at 32 KiB eager + 128 KiB rendezvous: payload alloc and copy do the work, kernel layers idle",
		setup: gridSetup(experiments.GridSpec{
			Op:       "alltoall",
			Platform: "griffon",
			Procs:    []int{32},
			Sizes:    []int64{32 * core.KiB, 128 * core.KiB},
			Models:   []string{"piecewise"},
			Backends: []string{"surf"},
		}, 1),
	},
	{
		name: "fattree_a2a256",
		why:  "256-rank 1 KiB alltoall on a 1024-host fat-tree: actor hand-off, solver, heap and routing do the work, payload is tiny",
		setup: gridSetup(experiments.GridSpec{
			Op:         "alltoall",
			Topologies: []string{"fattree:16x8x8:1x8x8"},
			Procs:      []int{256},
			Sizes:      []int64{1 * core.KiB},
			Models:     []string{"piecewise"},
			Backends:   []string{"surf"},
		}, 1),
	},
	{
		name:  "dt_shuffle448",
		why:   "448-rank NAS DT shuffle with RAM folding (the paper's largest run): many actors, few bytes, bypasses the payload path",
		setup: dtSetup,
	},
	{
		name: "grid_validate",
		why:  "48-job scatter grid surf vs openmpi vs mpich2 on 2 workers: campaign fan-out plus the packet emulator; yields sim_err_pct",
		setup: gridSetup(experiments.GridSpec{
			Op:       "scatter",
			Platform: "griffon",
			Procs:    []int{4, 8, 16, 32},
			Sizes:    []int64{16 * core.KiB, 64 * core.KiB, 256 * core.KiB, 1 * core.MiB},
			Models:   []string{"piecewise"},
			Backends: []string{"surf", "openmpi", "mpich2"},
		}, 2),
	},
	{
		name:  "service_mix",
		why:   "closed loop of 2 clients on the campaign service: 50% miss, 35% hit, 10% respelled hit, 5% evicted miss on a 128-entry cache",
		setup: serviceSetup,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newEnv times the calibration of the shared environment.
func newEnv(spans *spanLog) (*experiments.Env, error) {
	defer spans.begin("calibrate")()
	return experiments.NewEnv()
}

// ---- grid campaigns -------------------------------------------------------

type gridRunner struct {
	env     *experiments.Env
	spec    experiments.GridSpec
	workers int
	seed    uint64
}

func gridSetup(spec experiments.GridSpec, workers int) func(uint64, bool, *spanLog) (runner, error) {
	return func(seed uint64, traced bool, spans *spanLog) (runner, error) {
		env, err := newEnv(spans)
		if err != nil {
			return nil, err
		}
		spec.Stats = traced
		return &gridRunner{env: env, spec: spec, workers: workers, seed: core.DeriveSeed(seed, "campaign")}, nil
	}
}

func (g *gridRunner) campaign() (*campaign.Summary, error) {
	seed := g.seed
	return g.env.GridCampaignOpts(g.spec, experiments.CampaignOptions{Workers: g.workers, Seed: &seed})
}

func (g *gridRunner) warm() error {
	sum, err := g.campaign()
	if err != nil {
		return err
	}
	return sum.Err()
}

func (g *gridRunner) close() {}

func (g *gridRunner) run(deadline time.Time, minOps int, out *measurement) {
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		sum, err := g.campaign()
		out.opMS = append(out.opMS, msSince(t0))
		if err != nil {
			out.fail("campaign: %v", err)
			continue
		}
		if sum.Failed > 0 {
			out.fail("campaign: %d of %d jobs failed: %v", sum.Failed, sum.Jobs, sum.Err())
			continue
		}
		if out.output(sum.Fingerprint(), summaryDigest(sum)) {
			out.info = map[string]float64{"jobs_per_op": float64(sum.Jobs)}
			if e, ok := simErrPct(sum); ok {
				out.info["sim_err_pct"] = e
			}
		}
		for i := range sum.Results {
			r := &sum.Results[i]
			if r.Outcome != nil {
				countLayers(out, r.Outcome.Stats, r.Tags["backend"] != "surf")
			}
		}
	}
}

// summaryDigest hashes what a campaign computed — job IDs, simulated times
// and outcome values — but not the seeds, so one committed value checks the
// outputs at any --seed (none of the benchmark's jobs draws on its seed).
func summaryDigest(sum *campaign.Summary) string {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range sum.Results {
		r := &sum.Results[i]
		h.Write([]byte(r.ID))
		if r.Outcome == nil {
			continue
		}
		u64(math.Float64bits(float64(r.Outcome.SimulatedTime)))
		keys := make([]string, 0, len(r.Outcome.Values))
		for k := range r.Outcome.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			u64(math.Float64bits(r.Outcome.Values[k]))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simErrPct is the accuracy figure of a validation grid: the mean over
// grid points of |surf - openmpi| / openmpi on simulated time, in percent.
// ok is false for a campaign without both backends.
func simErrPct(sum *campaign.Summary) (pct float64, ok bool) {
	type point struct{ procs, size string }
	surf := map[point]float64{}
	for i := range sum.Results {
		if r := &sum.Results[i]; r.Outcome != nil && r.Tags["backend"] == "surf" {
			surf[point{r.Tags["procs"], r.Tags["size"]}] = float64(r.Outcome.SimulatedTime)
		}
	}
	// Sum in result order: the value must repeat to the last bit.
	var total float64
	n := 0
	for i := range sum.Results {
		r := &sum.Results[i]
		if r.Outcome == nil || r.Tags["backend"] != "openmpi" {
			continue
		}
		ref := float64(r.Outcome.SimulatedTime)
		if s, found := surf[point{r.Tags["procs"], r.Tags["size"]}]; found && ref > 0 {
			total += math.Abs(s-ref) / ref
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return 100 * total / float64(n), true
}

// countLayers folds one job's obs counters into the per-layer ledger names.
// On the emulator backend the network heap counts packet-hop events.
func countLayers(out *measurement, st map[string]float64, emu bool) {
	if len(st) == 0 {
		return
	}
	out.count("simix.actor_runs", st["kernel.actor_runs"])
	out.count("simix.rounds", st["kernel.rounds"])
	out.count("platform.routes", st["routes"])
	if emu {
		out.count("emu.hop_events", st["heap.net.pushes"])
		return
	}
	out.count("surf.flows", st["net.flows"])
	out.count("surf.syncs", st["net.syncs"]+st["cpu.syncs"])
	out.count("surf.heap_pushes", st["heap.net.pushes"]+st["heap.cpu.pushes"])
	out.count("surf.heap_stale", st["heap.net.stale"]+st["heap.cpu.stale"])
	out.count("lmm.solves", st["lmm.net.solves"]+st["lmm.cpu.solves"])
	out.count("lmm.components", st["lmm.net.components"]+st["lmm.cpu.components"])
	out.count("lmm.vars_resolved", st["lmm.net.vars_resolved"]+st["lmm.cpu.vars_resolved"])
	out.count("lmm.component_vars_max", math.Max(st["lmm.net.component_vars.max"], st["lmm.cpu.component_vars.max"]))
}

// ---- NAS DT ---------------------------------------------------------------

type dtRunner struct {
	env    *experiments.Env
	seed   uint64
	traced bool
}

func dtSetup(seed uint64, traced bool, spans *spanLog) (runner, error) {
	env, err := newEnv(spans)
	if err != nil {
		return nil, err
	}
	return &dtRunner{env: env, seed: core.DeriveSeed(seed, "dt"), traced: traced}, nil
}

var dtConfig = nas.DTConfig{Graph: nas.SH, Class: nas.ClassC, PayloadBytes: 256 * int(core.KiB), Fold: true}

func (d *dtRunner) once() (*smpi.Report, uint64, *obs.Stats, error) {
	procs, err := nas.DTProcs(dtConfig.Graph, dtConfig.Class)
	if err != nil {
		return nil, 0, nil, err
	}
	app, res := nas.DT(dtConfig)
	cfg := smpi.Config{Procs: procs, Platform: d.env.Griffon, Model: d.env.Piecewise, Seed: d.seed}
	if d.traced {
		cfg.Stats = new(obs.Stats)
	}
	rep, err := smpi.Run(cfg, app)
	if err != nil {
		return nil, 0, nil, err
	}
	return rep, res.Checksum, cfg.Stats, nil
}

func (d *dtRunner) warm() error {
	_, _, _, err := d.once()
	return err
}

func (d *dtRunner) close() {}

func (d *dtRunner) run(deadline time.Time, minOps int, out *measurement) {
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		rep, sum, st, err := d.once()
		out.opMS = append(out.opMS, msSince(t0))
		if err != nil {
			out.fail("dt: %v", err)
			continue
		}
		digest := fmt.Sprintf("%016x/%d", math.Float64bits(float64(rep.SimulatedTime)), rep.Messages)
		if out.output(fmt.Sprintf("%016x", sum), digest) {
			out.info = map[string]float64{"jobs_per_op": 1}
		}
		if st != nil {
			countLayers(out, st.Flat(), false)
		}
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
