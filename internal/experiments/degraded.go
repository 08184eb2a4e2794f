package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/dynamics"
)

// DegradedSweepResult holds the degraded-fabric experiment: how collective
// completion responds to trunk-capacity loss per interconnect shape. Times
// maps "<topo>/<fraction>" to the alltoall completion time in seconds.
type DegradedSweepResult struct {
	Table *Table
	Times map[string]float64
}

// degradedSweepTopos pairs each swept platform with the glob matching its
// trunk links — the cables every cross-section flow funnels through: the
// fat-tree's top level, the torus's last dimension, the dragonfly's global
// cables.
func degradedSweepTopos() []struct{ topo, trunk string } {
	return []struct{ topo, trunk string }{
		{"fattree64", "fattree64-l3-*"},
		{"torus64", "torus64-*-d2-*"},
		{"dragonfly72", "dragonfly72-g*-g*"},
	}
}

// degradedSweepFractions is the swept trunk-capacity axis: 1 is the healthy
// baseline (no dynamics armed at all), the rest degrade the trunk at t=0.
func degradedSweepFractions() []float64 { return []float64{1, 0.5, 0.25, 0.1} }

// DegradedSweep sweeps trunk-link degradation against interconnect shape
// for a machine-filling pairwise all-to-all: every trunk link is scaled to
// the given fraction of its nominal bandwidth at t=0 through a dynamics
// schedule, exactly the smpirun -dynamics path. The slowdown column shows
// how much of the collective's time actually rides the degraded cables —
// sub-linear slowdown means the healthy edge links absorb part of the cut,
// linear slowdown means the trunk is the binding constraint throughout.
// chunk is the per-rank-pair payload in bytes (0 means 64 KiB).
func DegradedSweep(env *Env, chunk int64) (*DegradedSweepResult, error) {
	if chunk == 0 {
		chunk = 64 * core.KiB
	}
	type point struct {
		topo     string
		fraction float64
	}
	var points []point
	var jobs []campaign.Job
	for _, tp := range degradedSweepTopos() {
		plat, err := env.Platform(tp.topo)
		if err != nil {
			return nil, err
		}
		for _, frac := range degradedSweepFractions() {
			cfg := surfConfig(plat, env.Piecewise)
			if frac < 1 {
				sched, err := dynamics.Parse(fmt.Sprintf("@0s link %s scale %g", tp.trunk, frac))
				if err != nil {
					return nil, err
				}
				cfg.Dynamics = sched
			}
			points = append(points, point{tp.topo, frac})
			jobs = append(jobs, collectiveJob(
				fmt.Sprintf("degraded/%s/frac=%g", tp.topo, frac), "alltoall",
				cfg, "", len(plat.Hosts()), chunk))
		}
	}
	runs, err := collectiveRuns(env, jobs)
	if err != nil {
		return nil, err
	}

	res := &DegradedSweepResult{
		Table: &Table{
			Title: fmt.Sprintf("Degraded-fabric sweep: alltoall vs trunk capacity, machine-filling ranks, %s per pair (seconds)",
				core.FormatBytes(chunk)),
			Header: []string{"topo", "trunk", "fraction", "alltoall_s", "slowdown"},
		},
		Times: make(map[string]float64, len(points)),
	}
	for i, pt := range points {
		res.Times[fmt.Sprintf("%s/%g", pt.topo, pt.fraction)] = runs[i].Total
	}
	for _, tp := range degradedSweepTopos() {
		healthy := res.Times[tp.topo+"/1"]
		for _, frac := range degradedSweepFractions() {
			t := res.Times[fmt.Sprintf("%s/%g", tp.topo, frac)]
			res.Table.Add(tp.topo, tp.trunk, frac, t, t/healthy)
		}
	}
	res.Table.Note("fraction 1 runs with no dynamics armed; lower fractions scale every trunk link at t=0 via the -dynamics event path")
	res.Table.Note("slowdown below 1/fraction means part of the collective rides links outside the degraded trunk")
	return res, nil
}
