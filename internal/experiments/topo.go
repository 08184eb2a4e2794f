package experiments

import (
	"fmt"
	"math"
	"slices"

	"smpigo/internal/core"
	"smpigo/internal/smpi"
	"smpigo/internal/topology"
)

// topoCollectivesTopos are the platforms the comparison sweeps: the paper's
// flat hierarchical cluster plus one of each generated shape, all with at
// least topoCollectivesProcs hosts.
func topoCollectivesTopos() []string {
	return []string{"griffon", "fattree64", "torus64", "dragonfly72"}
}

// topoCollectivesProcs is the rank count of the comparison; 64 fills
// fattree64 and torus64 exactly, so every host link is exercised.
const topoCollectivesProcs = 64

// topoCollectives compares ring against tree collectives across
// interconnect shapes: a ring schedule only talks to neighbors (which tori
// absorb on local cables), while binomial trees and recursive doubling jump
// across the machine (which fat-tree spines and dragonfly global links must
// carry). The flat cluster routes everything through the same backbone, so
// it cannot express these differences — the point of the topology axis.
// Every (op, algorithm) pair is one grid over the topology axis; chunk is
// the per-rank payload in bytes (must be a multiple of 8). Its claims:
// every point completes in positive time, and the interconnect matters —
// for each op and algorithm, at least two topologies disagree.
func topoCollectives(env *Env, chunk int64) (*Table, []Claim, error) {
	// Each operation's tree variant is its default; the ring is forced.
	def := smpi.DefaultAlgorithms()
	ops := []struct{ name, tree string }{{"bcast", def.Bcast}, {"allreduce", def.Allreduce}}
	topos := topoCollectivesTopos()
	var keys []string // "<op>/<algo>" of each spec
	var specs []GridSpec
	for _, op := range ops {
		for _, algo := range []string{op.tree, "ring"} {
			keys = append(keys, op.name+"/"+algo)
			specs = append(specs, GridSpec{
				Op: op.name, Procs: []int{topoCollectivesProcs}, Sizes: []int64{chunk},
				Backends: []string{"surf"}, Topologies: topos, Collectives: op.name + "=" + algo,
			})
		}
	}
	runs, err := env.gridRuns(CampaignOptions{}, specs...)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Cross-topology collectives: ring vs tree, %d procs, %s per rank (seconds)",
			topoCollectivesProcs, core.FormatBytes(chunk)),
		Header: []string{"topo", "op", "tree_s", "ring_s", "ring/tree"},
	}
	// runs[i*len(topos)+j] is keys[i] on topos[j].
	total := func(key string, j int) float64 { return runs[slices.Index(keys, key)*len(topos)+j].Total }
	for j, topo := range topos {
		for _, op := range ops {
			tt, rt := total(op.name+"/"+op.tree, j), total(op.name+"/ring", j)
			t.add(topo, op.name, tt, rt, rt/tt)
		}
	}
	for _, topo := range topos[1:] {
		spec, err := topology.ParseSpec(topo)
		if err != nil {
			return nil, nil, err
		}
		m := spec.Metrics()
		t.note("%s: %d hosts, %d links, diameter %d, bisection %.3g GB/s",
			topo, m.Hosts, m.Links, m.Diameter, m.BisectionBandwidth/1e9)
	}
	t.note("ring maps onto neighbor links (tori); trees concentrate load on spines/backbones")

	minTime := math.Inf(1)
	var claims []Claim
	for _, key := range keys {
		var times []float64
		for j := range topos {
			times = append(times, total(key, j))
		}
		minTime = min(minTime, slices.Min(times))
		distinct := slices.Compact(slices.Sorted(slices.Values(times)))
		claims = append(claims, claim(key+": at least two topologies disagree", len(distinct) >= 2, times...))
	}
	return t, append(claims, claim("every completion time > 0", minTime > 0, minTime)), nil
}
