package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/metrics"
	"smpigo/internal/nas"
	"smpigo/internal/smpi"
)

// DTResult holds Figure 15: NAS DT execution times, SMPI vs emulated
// OpenMPI, for the WH and BH graphs on classes A and B.
type DTResult struct {
	Table *Table
	// Times[graph][class] -> (smpi, openmpi) seconds.
	SMPI, OpenMPI map[string]float64
	Summary       metrics.Summary
}

// dtJob wraps one DT instance as a campaign job with the report as
// payload; procs must be nas.DTProcs of the instance's graph and class.
func dtJob(id string, cfg smpi.Config, dcfg nas.DTConfig, procs int) campaign.Job {
	cfg.Procs = procs
	app, _ := nas.DT(dcfg)
	tags := map[string]string{"app": "dt", "graph": string(dcfg.Graph), "class": string(dcfg.Class)}
	return simJob(id, tags, cfg, "", reportRun(app, func(rep *smpi.Report) map[string]float64 {
		return map[string]float64{"max_rss": rep.MaxPeakRSS}
	}))
}

// Figure15 reproduces Figure 15: DT WH and BH for classes A and B, SMPI
// prediction vs emulated OpenMPI. Payload can be reduced for fast test
// runs; 0 uses the class defaults.
func Figure15(env *Env, payload int) (*DTResult, error) {
	res := &DTResult{
		Table: &Table{
			Title:  "Figure 15: NAS DT execution time (seconds)",
			Header: []string{"graph", "class", "smpi_s", "openmpi_s", "err_pct"},
		},
		SMPI:    make(map[string]float64),
		OpenMPI: make(map[string]float64),
	}
	// The per-(graph, class) payload scan fans out as one campaign: each
	// scenario point runs on both backends concurrently.
	type point struct {
		graph nas.DTGraph
		class nas.DTClass
	}
	var points []point
	var jobs []campaign.Job
	for _, class := range []nas.DTClass{nas.ClassA, nas.ClassB} {
		for _, graph := range []nas.DTGraph{nas.WH, nas.BH} {
			points = append(points, point{graph, class})
			dcfg := nas.DTConfig{Graph: graph, Class: class, PayloadBytes: payload}
			procs, err := nas.DTProcs(graph, class)
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("fig15/%s-%c", graph, class)
			jobs = append(jobs,
				dtJob(id+"/smpi", surfConfig(env.Griffon, env.Piecewise), dcfg, procs),
				dtJob(id+"/openmpi", emuConfig(env.Griffon), dcfg, procs),
			)
		}
	}
	outs, err := env.runCampaign(jobs)
	if err != nil {
		return nil, err
	}
	var pred, ref []float64
	for i, pt := range points {
		s := outs[2*i].Payload.(*smpi.Report)
		o := outs[2*i+1].Payload.(*smpi.Report)
		key := fmt.Sprintf("%s-%c", pt.graph, pt.class)
		res.SMPI[key] = float64(s.SimulatedTime)
		res.OpenMPI[key] = float64(o.SimulatedTime)
		pred = append(pred, float64(s.SimulatedTime))
		ref = append(ref, float64(o.SimulatedTime))
		res.Table.Add(string(pt.graph), string(pt.class),
			float64(s.SimulatedTime), float64(o.SimulatedTime),
			metrics.ToPercent(metrics.LogError(float64(s.SimulatedTime), float64(o.SimulatedTime))))
	}
	res.Summary = metrics.Summarize(pred, ref)
	res.Table.Note("overall: %s", res.Summary)
	res.Table.Note("trend check: BH slower than WH on both backends for each class")
	return res, nil
}

// RAMResult holds Figure 16: maximum per-rank RSS with and without RAM
// folding, including the out-of-memory markers.
type RAMResult struct {
	Table *Table
	// Plain and Folded map "graph-class" to bytes; a missing Plain entry
	// means the unfolded run would not fit in HostRAM (the paper's "OM").
	Plain, Folded map[string]float64
	// HostRAM is the assumed single-node memory budget in bytes.
	HostRAM float64
}

// Figure16 reproduces Figure 16: per-process memory footprint of DT with
// and without RAM folding, classes A-C, all three graphs. Runs use the
// no-contention analytical backend (the RSS metric does not depend on
// network timing, and blind flows skip the O(flows²) sharing) and the class
// payload scaled by payloadScale in (0,1] to keep test runs fast; OM
// classification always uses the class scale.
func Figure16(env *Env, payloadScale float64, hostRAM float64) (*RAMResult, error) {
	if payloadScale <= 0 || payloadScale > 1 {
		payloadScale = 1
	}
	if hostRAM <= 0 {
		hostRAM = 2 * float64(core.GiB)
	}
	res := &RAMResult{
		Table: &Table{
			Title:  "Figure 16: DT max RSS per process (MiB), with and without RAM folding",
			Header: []string{"graph", "class", "procs", "smpi_MiB", "folded_MiB", "ratio"},
		},
		Plain:   make(map[string]float64),
		Folded:  make(map[string]float64),
		HostRAM: hostRAM,
	}
	cfgRun, err := env.Config(env.Griffon, "nocontention", "piecewise")
	if err != nil {
		return nil, err
	}

	// One campaign covers every configuration: a folded run for each
	// (graph, class), plus an unfolded run when it fits in hostRAM.
	type cfgPoint struct {
		graph    nas.DTGraph
		class    nas.DTClass
		procs    int
		key      string
		foldIdx  int
		plainIdx int // -1 when the unfolded run would not fit (paper's OM)
	}
	var points []cfgPoint
	var jobs []campaign.Job
	for _, class := range []nas.DTClass{nas.ClassA, nas.ClassB, nas.ClassC} {
		for _, graph := range []nas.DTGraph{nas.WH, nas.BH, nas.SH} {
			procs, err := nas.DTProcs(graph, class)
			if err != nil {
				return nil, err
			}
			pt := cfgPoint{
				graph: graph, class: class, procs: procs,
				key: fmt.Sprintf("%s-%c", graph, class), plainIdx: -1,
			}
			base := nas.DTConfig{Graph: graph, Class: class}
			payload := int(payloadScale * float64(nas.DTPayload(class)))

			fold := base
			fold.Fold = true
			fold.PayloadBytes = payload
			pt.foldIdx = len(jobs)
			jobs = append(jobs, dtJob("fig16/"+pt.key+"/folded", cfgRun, fold, procs))

			// Classify OM against the unscaled footprint: only runs that fit
			// in hostRAM execute unfolded.
			if unscaled := float64(procs) * 2 * float64(nas.DTPayload(class)); unscaled <= hostRAM {
				plain := base
				plain.PayloadBytes = payload
				pt.plainIdx = len(jobs)
				jobs = append(jobs, dtJob("fig16/"+pt.key+"/plain", cfgRun, plain, procs))
			}
			points = append(points, pt)
		}
	}
	outs, err := env.runCampaign(jobs)
	if err != nil {
		return nil, err
	}
	for _, pt := range points {
		fRep := outs[pt.foldIdx].Payload.(*smpi.Report)
		res.Folded[pt.key] = fRep.MaxPeakRSS / payloadScale
		if pt.plainIdx < 0 {
			res.Table.Add(string(pt.graph), string(pt.class), pt.procs, "OM",
				res.Folded[pt.key]/float64(core.MiB), "-")
			continue
		}
		pRep := outs[pt.plainIdx].Payload.(*smpi.Report)
		res.Plain[pt.key] = pRep.MaxPeakRSS / payloadScale
		res.Table.Add(string(pt.graph), string(pt.class), pt.procs,
			res.Plain[pt.key]/float64(core.MiB),
			res.Folded[pt.key]/float64(core.MiB),
			fmt.Sprintf("%.1fx", res.Plain[pt.key]/res.Folded[pt.key]))
	}
	res.Table.Note("host RAM budget: %s; OM = out of memory without folding (paper's OM labels)",
		core.FormatBytes(int64(hostRAM)))
	return res, nil
}
