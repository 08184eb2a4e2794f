package experiments

import (
	"fmt"
	"math"
	"runtime"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/nas"
	"smpigo/internal/smpi"
)

// figure17 reproduces Figure 17: binomial scatter over 16 processes with
// message sizes growing from 4 to 64 MiB, comparing simulation cost against
// (emulated) real execution time. The paper's claim is that on-line
// simulation runs faster than the real application, increasingly so with
// message size; with an analytical backend the speedup here is much larger
// than the paper's 3.6-5.3x (our testbed is itself simulated). The
// wall-clock claims carry no values: those are not a function of the seed.
func figure17(env *Env, o CampaignOptions) (*Table, []Claim, error) {
	const procs = 16
	t := &Table{
		Title:  "Figure 17: simulation time vs simulated time vs real time (scatter, 16 procs)",
		Header: []string{"msg_size", "smpi_wall_s", "smpi_simulated_s", "real_s (emu)", "speedup_vs_real"},
	}
	sizes := []int64{4 * core.MiB, 8 * core.MiB, 16 * core.MiB, 32 * core.MiB, 64 * core.MiB}
	spec := func(backend string) GridSpec {
		return GridSpec{Op: "scatter", Procs: []int{procs}, Sizes: sizes, Backends: []string{backend}}
	}
	// The "real" (emulated testbed) runs fan out on the campaign pool: only
	// their simulated times matter. The SMPI runs are the figure's measured
	// quantity — their wall clock IS the result — so they execute serially
	// on a single worker, after a GC flushes the garbage the testbed runs
	// left behind; otherwise pool contention and GC debt are charged to the
	// measurement.
	emuRuns, err := env.gridRuns(o, spec("openmpi"))
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	o.Workers = 1
	surfRuns, err := env.gridRuns(o, spec("surf"))
	if err != nil {
		return nil, nil, err
	}
	var claims []Claim
	for i, size := range sizes {
		wall, sim, real := surfRuns[i].Wall.Seconds(), surfRuns[i].Total, emuRuns[i].Total
		t.add(core.FormatBytes(size), wall, sim, real, real/wall)
		claims = append(claims,
			claim(core.FormatBytes(size)+": simulation wall-clock below real time", wall < real),
			claim(core.FormatBytes(size)+": predicted within ±25% of real", within(sim, real, 0.25), sim, real))
	}
	t.note("SMPI wall-clock stays far below the (emulated) real execution time, and the gap grows with size")
	return t, claims, nil
}

// figure18 reproduces Figure 18: NAS EP with CPU-burst sampling ratios
// from 100% down to 25%. M is the pair-count exponent (the paper runs
// class B = 2^30 on 4 processes; -fast uses a smaller M — the
// linear-wall-time/flat-simulated-time shape is scale-free). Its claims:
// each rank executes round(ratio × iterations) bursts, and the simulated
// time stays within ±50% of the fully executed run's.
func figure18(env *Env, o CampaignOptions, m, iterations int) (*Table, []Claim, error) {
	const procs = 4
	t := &Table{
		Title:  "Figure 18: CPU sampling impact on NAS EP (4 procs)",
		Header: []string{"ratio_pct", "sim_wall_s", "simulated_s", "bursts_executed", "bursts_replayed"},
	}
	ratios := []float64{1.0, 0.75, 0.5, 0.25}
	cfg, err := env.Config(env.Griffon, "surf", "piecewise")
	if err != nil {
		return nil, nil, err
	}
	cfg.Procs = procs
	var jobs []campaign.Job
	for _, ratio := range ratios {
		app, _ := nas.EP(nas.EPConfig{M: m, Iterations: iterations, SampleRatio: ratio})
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
	o.Workers = 1
	outs, err := o.run(jobs).Outcomes()
	if err != nil {
		return nil, nil, err
	}
	var claims []Claim
	base := float64(outs[0].Payload.(*smpi.Report).SimulatedTime)
	for i, ratio := range ratios {
		rep := outs[i].Payload.(*smpi.Report)
		simulated := float64(rep.SimulatedTime)
		t.add(ratio*100, rep.WallTime.Seconds(), simulated, rep.BurstsExecuted, rep.BurstsReplayed)
		executed, want := float64(rep.BurstsExecuted), math.Round(ratio*float64(iterations))*procs
		claims = append(claims, claim(fmt.Sprintf("ratio %g%%: bursts executed = round(ratio × iterations) × procs", ratio*100),
			executed == want, executed, want))
		if i > 0 {
			claims = append(claims, claim(fmt.Sprintf("ratio %g%%: simulated time within ±50%% of the 100%% run", ratio*100),
				within(simulated, base, 0.5), simulated, base))
		}
	}
	t.note("simulation wall time decreases ~linearly with the sampling ratio; simulated time stays flat (EP is regular)")
	return t, claims, nil
}
