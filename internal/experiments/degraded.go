package experiments

import (
	"fmt"

	"smpigo/internal/core"
)

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

// degradedSweepFractions is the swept trunk-capacity axis: 1, first, is the
// healthy baseline (no dynamics armed at all), the rest degrade the trunk at
// t=0.
func degradedSweepFractions() []float64 { return []float64{1, 0.5, 0.25, 0.1} }

// degradedSweep sweeps trunk-link degradation against interconnect shape
// for a machine-filling pairwise all-to-all: every trunk link is scaled to
// the given fraction of its nominal bandwidth at t=0 through a dynamics
// schedule, exactly the smpirun -dynamics path. The slowdown column shows
// how much of the collective's time actually rides the degraded cables —
// sub-linear slowdown means the healthy edge links absorb part of the cut,
// linear slowdown means the trunk is the binding constraint throughout.
// chunk is the per-rank-pair payload in bytes. Its claims, per topology:
// the healthy run is its own baseline (slowdown exactly 1), cutting the
// trunk further always costs more, and the slowdown stays below 1/fraction
// because part of the all-to-all rides healthy links.
func degradedSweep(env *Env, chunk int64) (*Table, []Claim, error) {
	var specs []GridSpec
	for _, tp := range degradedSweepTopos() {
		plat, err := env.Platform(tp.topo)
		if err != nil {
			return nil, nil, err
		}
		spec := GridSpec{
			Op: "alltoall", Procs: []int{len(plat.Hosts())}, Sizes: []int64{chunk},
			Backends: []string{"surf"}, Topologies: []string{tp.topo},
		}
		for _, frac := range degradedSweepFractions() {
			sched := "" // the healthy baseline arms no dynamics at all
			if frac < 1 {
				sched = fmt.Sprintf("@0s link %s scale %g", tp.trunk, frac)
			}
			spec.Dynamics = append(spec.Dynamics, sched)
		}
		specs = append(specs, spec)
	}
	runs, err := env.gridRuns(CampaignOptions{}, specs...)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Degraded-fabric sweep: alltoall vs trunk capacity, machine-filling ranks, %s per pair (seconds)",
			core.FormatBytes(chunk)),
		Header: []string{"topo", "trunk", "fraction", "alltoall_s", "slowdown"},
	}
	var claims []Claim
	fractions := degradedSweepFractions()
	for i, tp := range degradedSweepTopos() {
		healthy := runs[i*len(fractions)].Total
		var slowdowns []float64
		rising, belowInverse := true, true
		for j, frac := range fractions {
			total := runs[i*len(fractions)+j].Total
			slowdown := total / healthy
			t.add(tp.topo, tp.trunk, frac, total, slowdown)
			if j > 0 {
				rising = rising && slowdown > slowdowns[j-1]
				belowInverse = belowInverse && slowdown < 1/frac
			}
			slowdowns = append(slowdowns, slowdown)
		}
		claims = append(claims,
			claim(tp.topo+": slowdown exactly 1 at fraction 1", slowdowns[0] == 1, slowdowns[0]),
			claim(tp.topo+": slowdown rises strictly as the fraction falls", rising, slowdowns...),
			claim(tp.topo+": slowdown below 1/fraction", belowInverse, slowdowns[1:]...))
	}
	t.note("fraction 1 runs with no dynamics armed; lower fractions scale every trunk link at t=0 via the -dynamics event path")
	t.note("slowdown below 1/fraction means part of the collective rides links outside the degraded trunk")
	return t, claims, nil
}
