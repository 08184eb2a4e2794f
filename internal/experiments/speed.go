package experiments

import (
	"fmt"
	"runtime"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/nas"
	"smpigo/internal/smpi"
)

// SpeedResult holds Figure 17: for each message size, the wall-clock time
// the SMPI simulation took, the simulated execution time it predicted, and
// the "real" execution time (the emulated testbed's simulated time, which
// stands in for running on hardware).
type SpeedResult struct {
	Table *Table
	Sizes []int64
	// SimWall is SMPI's wall-clock simulation cost; SimTime its predicted
	// execution time; RealTime the testbed execution time.
	SimWall  []time.Duration
	SimTime  []float64
	RealTime []float64
}

// Figure17 reproduces Figure 17: binomial scatter over 16 processes with
// message sizes growing from 4 to 64 MiB, comparing simulation cost against
// (emulated) real execution time. The paper's claim is that on-line
// simulation runs faster than the real application, increasingly so with
// message size; with an analytical backend the speedup here is much larger
// than the paper's 3.6-5.3x (our testbed is itself simulated).
func Figure17(env *Env) (*SpeedResult, error) {
	const procs = 16
	res := &SpeedResult{Table: &Table{
		Title:  "Figure 17: simulation time vs simulated time vs real time (scatter, 16 procs)",
		Header: []string{"msg_size", "smpi_wall_s", "smpi_simulated_s", "real_s (emu)", "speedup_vs_real"},
	}}
	sizes := []int64{4 * core.MiB, 8 * core.MiB, 16 * core.MiB, 32 * core.MiB, 64 * core.MiB}
	// The "real" (emulated testbed) runs fan out on the campaign pool: only
	// their simulated times matter. The SMPI runs are the figure's measured
	// quantity — their wall clock IS the result — so they execute serially
	// on a single worker, after a GC flushes the garbage the testbed runs
	// left behind; otherwise pool contention and GC debt are charged to the
	// measurement.
	var emuJobs, surfJobs []campaign.Job
	for _, size := range sizes {
		emuJobs = append(emuJobs, collectiveJob(
			fmt.Sprintf("fig17/size=%s/openmpi", core.FormatBytes(size)), "scatter",
			emuConfig(env.Griffon), "", procs, size))
		surfJobs = append(surfJobs, collectiveJob(
			fmt.Sprintf("fig17/size=%s/smpi", core.FormatBytes(size)), "scatter",
			surfConfig(env.Griffon, env.Piecewise), "", procs, size))
	}
	emuRuns, err := collectiveRuns(env, emuJobs)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	surfSum := campaign.Run(campaign.Options{Workers: 1, Seed: env.Seed}, surfJobs)
	surfOuts, err := surfSum.Outcomes()
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		s := surfOuts[i].Payload.(*collectiveRun)
		o := emuRuns[i]
		res.Sizes = append(res.Sizes, size)
		res.SimWall = append(res.SimWall, s.Wall)
		res.SimTime = append(res.SimTime, s.Total)
		res.RealTime = append(res.RealTime, o.Total)
		speedup := o.Total / s.Wall.Seconds()
		res.Table.Add(core.FormatBytes(size), s.Wall.Seconds(), s.Total, o.Total, speedup)
	}
	res.Table.Note("SMPI wall-clock stays far below the (emulated) real execution time, and the gap grows with size")
	return res, nil
}

// SamplingResult holds Figure 18: for each sampling ratio, the wall-clock
// time of the simulation and the simulated execution time of NAS EP.
type SamplingResult struct {
	Table  *Table
	Ratios []float64
	// Wall is the simulation's real cost; Simulated the predicted
	// execution time; Executed/Replayed count the sampled bursts.
	Wall      []time.Duration
	Simulated []float64
	Executed  []int64
}

// Figure18 reproduces Figure 18: NAS EP with CPU-burst sampling ratios
// from 100% down to 25%. M is the pair-count exponent (the paper runs
// class B = 2^30 on 4 processes; tests use a scaled M, benchmarks a larger
// one — the linear-wall-time/flat-simulated-time shape is scale-free).
func Figure18(env *Env, m, iterations int) (*SamplingResult, error) {
	const procs = 4
	res := &SamplingResult{Table: &Table{
		Title:  "Figure 18: CPU sampling impact on NAS EP (4 procs)",
		Header: []string{"ratio_pct", "sim_wall_s", "simulated_s", "bursts_executed", "bursts_replayed"},
	}}
	ratios := []float64{1.0, 0.75, 0.5, 0.25}
	var jobs []campaign.Job
	for _, ratio := range ratios {
		app, _ := nas.EP(nas.EPConfig{M: m, Iterations: iterations, SampleRatio: ratio})
		cfg := surfConfig(env.Griffon, env.Piecewise)
		cfg.Procs = procs
		jobs = append(jobs, simJob(fmt.Sprintf("fig18/ratio=%g", ratio),
			map[string]string{"app": "ep", "ratio": fmt.Sprint(ratio)}, cfg, "",
			reportRun(app, func(rep *smpi.Report) map[string]float64 {
				return map[string]float64{
					"bursts_executed": float64(rep.BurstsExecuted),
					"bursts_replayed": float64(rep.BurstsReplayed),
				}
			})))
	}
	// Like Figure 17's SMPI runs, the wall-clock column is the figure's
	// measured quantity, so the ratio sweep runs serially on one worker:
	// concurrent EP simulations would charge each other's CPU contention
	// to the measurement.
	sum := campaign.Run(campaign.Options{Workers: 1, Seed: env.Seed}, jobs)
	outs, err := sum.Outcomes()
	if err != nil {
		return nil, err
	}
	for i, ratio := range ratios {
		rep := outs[i].Payload.(*smpi.Report)
		res.Ratios = append(res.Ratios, ratio)
		res.Wall = append(res.Wall, rep.WallTime)
		res.Simulated = append(res.Simulated, float64(rep.SimulatedTime))
		res.Executed = append(res.Executed, rep.BurstsExecuted)
		res.Table.Add(ratio*100, rep.WallTime.Seconds(), float64(rep.SimulatedTime),
			rep.BurstsExecuted, rep.BurstsReplayed)
	}
	res.Table.Note("simulation wall time decreases ~linearly with the sampling ratio; simulated time stays flat (EP is regular)")
	return res, nil
}
