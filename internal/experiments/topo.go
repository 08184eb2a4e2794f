package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/smpi"
	"smpigo/internal/topology"
)

// TopoCollectivesResult holds the cross-topology collectives comparison:
// ring vs tree broadcast and allreduce on the flat griffon cluster and the
// three generated interconnects. Times maps "<topo>/<op>/<algo>" to the
// collective's completion time in seconds.
type TopoCollectivesResult struct {
	Table *Table
	Times map[string]float64
}

// topoCollectivesTopos are the platforms the comparison sweeps: the paper's
// flat hierarchical cluster plus one of each generated shape, all with at
// least TopoCollectivesProcs hosts.
func topoCollectivesTopos() []string {
	return []string{"griffon", "fattree64", "torus64", "dragonfly72"}
}

// TopoCollectivesProcs is the rank count of the comparison; 64 fills
// fattree64 and torus64 exactly, so every host link is exercised.
const TopoCollectivesProcs = 64

// TopoCollectives compares ring against tree collectives across
// interconnect shapes: a ring schedule only talks to neighbors (which tori
// absorb on local cables), while binomial trees and recursive doubling jump
// across the machine (which fat-tree spines and dragonfly global links must
// carry). The flat cluster routes everything through the same backbone, so
// it cannot express these differences — the point of the topology axis.
// Every (topology, op, algorithm) point is one campaign job; chunk is the
// per-rank payload in bytes (must be a multiple of 8; 0 means 256 KiB).
func TopoCollectives(env *Env, chunk int64) (*TopoCollectivesResult, error) {
	if chunk == 0 {
		chunk = 256 * core.KiB
	}
	if err := checkFloat64Payload("topo collectives", chunk); err != nil {
		return nil, err
	}
	// Each operation's tree variant is its default; the ring is forced.
	def := smpi.DefaultAlgorithms()
	ops := []struct{ name, tree string }{{"bcast", def.Bcast}, {"allreduce", def.Allreduce}}
	type point struct{ topo, op, algo string }
	var points []point
	for _, topo := range topoCollectivesTopos() {
		for _, op := range ops {
			points = append(points, point{topo, op.name, op.tree}, point{topo, op.name, "ring"})
		}
	}

	jobs := make([]campaign.Job, 0, len(points))
	for _, pt := range points {
		plat, err := env.Platform(pt.topo)
		if err != nil {
			return nil, err
		}
		cfg := surfConfig(plat, env.Piecewise)
		if cfg.Algorithms, err = smpi.ParseAlgorithms(pt.op + "=" + pt.algo); err != nil {
			return nil, err
		}
		j := collectiveJob(fmt.Sprintf("topo/%s/%s/%s", pt.topo, pt.op, pt.algo), pt.op,
			cfg, "", TopoCollectivesProcs, chunk)
		j.Tags["topo"], j.Tags["op"], j.Tags["algo"] = pt.topo, pt.op, pt.algo
		jobs = append(jobs, j)
	}
	runs, err := collectiveRuns(env, jobs)
	if err != nil {
		return nil, err
	}

	res := &TopoCollectivesResult{
		Table: &Table{
			Title: fmt.Sprintf("Cross-topology collectives: ring vs tree, %d procs, %s per rank (seconds)",
				TopoCollectivesProcs, core.FormatBytes(chunk)),
			Header: []string{"topo", "op", "tree_s", "ring_s", "ring/tree"},
		},
		Times: make(map[string]float64, len(points)),
	}
	for i, pt := range points {
		res.Times[pt.topo+"/"+pt.op+"/"+pt.algo] = runs[i].Total
	}
	for _, topo := range topoCollectivesTopos() {
		for _, op := range ops {
			tt := res.Times[topo+"/"+op.name+"/"+op.tree]
			rt := res.Times[topo+"/"+op.name+"/ring"]
			res.Table.Add(topo, op.name, tt, rt, rt/tt)
		}
	}
	for _, topo := range topoCollectivesTopos()[1:] {
		spec, err := topology.ParseSpec(topo)
		if err != nil {
			return nil, err
		}
		m := spec.Metrics()
		res.Table.Note("%s: %d hosts, %d links, diameter %d, bisection %.3g GB/s",
			topo, m.Hosts, m.Links, m.Diameter, m.BisectionBandwidth/1e9)
	}
	res.Table.Note("ring maps onto neighbor links (tori); trees concentrate load on spines/backbones")
	return res, nil
}
