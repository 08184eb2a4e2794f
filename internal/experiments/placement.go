package experiments

import (
	"fmt"
	"math"

	"smpigo/internal/core"
	"smpigo/internal/smpi"
)

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

// placementSweep sweeps rank placement (block, round-robin, random) against
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
// 8). Its claims: every point completes in positive time, the forced ring
// allreduce on the oversubscribed fat-tree is strictly slower under rr than
// under block (the D-mod-k interaction), and on the torus block and rr tie
// exactly.
func placementSweep(env *Env, chunk int64) (*Table, []Claim, error) {
	// The ops pair the auto-selected algorithms with a forced ring
	// allreduce: ring schedules only talk to rank neighbors, so they are
	// maximally placement-sensitive on fat-trees — "block" keeps most hops
	// under the leaf switches while "rr" pushes every hop through the
	// D-mod-k spine (on tori the auto mode picks ring itself).
	ops := []struct{ name, app, collectives string }{
		{"allreduce(auto)", "allreduce", "auto"},
		{"allreduce(ring)", "allreduce", "allreduce=ring"},
		{"alltoall", "alltoall", "auto"},
	}
	t := &Table{
		Title: fmt.Sprintf("Placement sweep: block vs round-robin vs random, machine-filling ranks, %s per rank (seconds)",
			core.FormatBytes(chunk)),
		Header: []string{"topo", "op", "block_s", "rr_s", "random_s", "rr/block"},
	}
	var specs []GridSpec
	for _, topo := range placementSweepTopos() {
		plat, err := env.Platform(topo)
		if err != nil {
			return nil, nil, err
		}
		resolved := smpi.Auto().Resolve(plat.Topo)
		t.note("%s: %d ranks, -collectives auto -> bcast=%s allreduce=%s",
			topo, len(plat.Hosts()), resolved.Bcast, resolved.Allreduce)
		for _, op := range ops {
			specs = append(specs, GridSpec{
				Op: op.app, Procs: []int{len(plat.Hosts())}, Sizes: []int64{chunk}, Backends: []string{"surf"},
				Topologies: []string{topo}, Placements: placementSweepPolicies(), Collectives: op.collectives,
			})
		}
	}
	runs, err := env.gridRuns(CampaignOptions{}, specs...)
	if err != nil {
		return nil, nil, err
	}
	// Runs come in (topo, op, placement) order, placements in display
	// order: block, rr, random.
	minTime := math.Inf(1)
	var claims []Claim
	for i, topo := range placementSweepTopos() {
		for j, op := range ops {
			k := len(placementSweepPolicies()) * (i*len(ops) + j)
			bl, rr, rnd := runs[k].Total, runs[k+1].Total, runs[k+2].Total
			t.add(topo, op.name, bl, rr, rnd, rr/bl)
			minTime = min(minTime, bl, rr, rnd)
			switch {
			case topo == "fattree64" && op.name == "allreduce(ring)":
				claims = append(claims, claim("fattree64 ring allreduce: rr slower than block", rr > bl, rr, bl))
			case topo == "torus:4x4x4" && op.name == "allreduce(ring)":
				claims = append(claims, claim("torus:4x4x4 ring allreduce: block and rr tie exactly", bl == rr, bl, rr))
			}
		}
	}
	t.note("block keeps ring traffic under the leaf switches; rr forces it through the spine, where D-mod-k converges flows onto shared cables")
	t.note("on the torus block and rr tie exactly: dealing ranks across rows only renames the dimensions of a vertex-transitive graph")
	return t, append(claims, claim("every completion time > 0", minTime > 0, minTime)), nil
}
