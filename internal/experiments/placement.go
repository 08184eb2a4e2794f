package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/smpi"
)

// PlacementSweepResult holds the placement-sweep experiment: how the
// rank-to-host mapping interacts with the interconnect's deterministic
// routing. Times maps "<topo>/<op>/<placement>" to the collective's
// completion time in seconds.
type PlacementSweepResult struct {
	Table *Table
	Times map[string]float64
}

// placementSweepTopos are the swept platforms: the acceptance pair — a
// full-bisection two-level fat-tree and a 4x4x4 torus, on which the "auto"
// collective mode resolves to different algorithms — plus the oversubscribed
// three-level fattree64, where the spine is thin enough for the mapping to
// decide whether D-mod-k routes stay under the leaf switches or converge on
// shared spine cables.
func placementSweepTopos() []string {
	return []string{"fattree:4x4:1x4", "fattree64", "torus:4x4x4"}
}

// placementSweepPolicies is the swept placement axis in display order.
func placementSweepPolicies() []string { return []string{"block", "rr", "random"} }

// PlacementSweep sweeps rank placement (block, round-robin, random) against
// interconnect shape for an auto-selected allreduce, a forced ring
// allreduce, and a pairwise all-to-all. Every rank count fills its machine,
// so the policies are pure permutations of the same hosts: under "block"
// consecutive ranks share a leaf switch (or a torus row), so the neighbor
// exchanges of ring schedules ride local links; under "rr" consecutive
// ranks sit in different leaves, so the same schedule's traffic all climbs
// into the spine, where D-mod-k routing converges flows towards each
// destination onto the same cables. On a torus, block and rr complete
// identically — dealing ranks across rows just renames the dimensions of a
// vertex-transitive graph — which is itself a routing fact the table
// exposes. chunk is the per-rank payload in bytes (must be a multiple of
// 8; 0 means 256 KiB).
func PlacementSweep(env *Env, chunk int64) (*PlacementSweepResult, error) {
	if chunk == 0 {
		chunk = 256 * core.KiB
	}
	if err := checkFloat64Payload("placement sweep", chunk); err != nil {
		return nil, err
	}
	// The ops pair the auto-selected algorithms with a forced ring
	// allreduce: ring schedules only talk to rank neighbors, so they are
	// maximally placement-sensitive on fat-trees — "block" keeps most hops
	// under the leaf switches while "rr" pushes every hop through the
	// D-mod-k spine (on tori the auto mode picks ring itself).
	ops := []struct {
		name, app string
		algos     smpi.Algorithms
	}{
		{"allreduce(auto)", "allreduce", smpi.Auto()},
		{"allreduce(ring)", "allreduce", smpi.Algorithms{Allreduce: "ring"}},
		{"alltoall", "alltoall", smpi.Auto()},
	}
	type point struct {
		topo, op, place string
	}
	var points []point
	jobs := make([]campaign.Job, 0, len(placementSweepTopos())*len(ops)*3)
	for _, topo := range placementSweepTopos() {
		plat, err := env.Platform(topo)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			for _, place := range placementSweepPolicies() {
				points = append(points, point{topo, op.name, place})
				cfg := surfConfig(plat, env.Piecewise)
				cfg.Algorithms = op.algos
				jobs = append(jobs, collectiveJob(
					fmt.Sprintf("placement/%s/%s/%s", topo, op.name, place), op.app,
					cfg, place, len(plat.Hosts()), chunk))
			}
		}
	}
	runs, err := collectiveRuns(env, jobs)
	if err != nil {
		return nil, err
	}

	res := &PlacementSweepResult{
		Table: &Table{
			Title: fmt.Sprintf("Placement sweep: block vs round-robin vs random, machine-filling ranks, %s per rank (seconds)",
				core.FormatBytes(chunk)),
			Header: []string{"topo", "op", "block_s", "rr_s", "random_s", "rr/block"},
		},
		Times: make(map[string]float64, len(points)),
	}
	for i, pt := range points {
		res.Times[pt.topo+"/"+pt.op+"/"+pt.place] = runs[i].Total
	}
	for _, topo := range placementSweepTopos() {
		for _, op := range ops {
			bl := res.Times[topo+"/"+op.name+"/block"]
			rr := res.Times[topo+"/"+op.name+"/rr"]
			rnd := res.Times[topo+"/"+op.name+"/random"]
			res.Table.Add(topo, op.name, bl, rr, rnd, rr/bl)
		}
	}
	for _, topo := range placementSweepTopos() {
		plat, err := env.Platform(topo)
		if err != nil {
			return nil, err
		}
		resolved := smpi.Auto().Resolve(plat.Topo)
		res.Table.Note("%s: %d ranks, -collectives auto -> bcast=%s allreduce=%s",
			topo, len(plat.Hosts()), resolved.Bcast, resolved.Allreduce)
	}
	res.Table.Note("block keeps ring traffic under the leaf switches; rr forces it through the spine, where D-mod-k converges flows onto shared cables")
	res.Table.Note("on the torus block and rr tie exactly: dealing ranks across rows only renames the dimensions of a vertex-transitive graph")
	return res, nil
}
