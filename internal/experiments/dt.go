package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/metrics"
	"smpigo/internal/nas"
	"smpigo/internal/smpi"
)

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

// figure15 reproduces Figure 15: DT WH and BH for classes A and B, SMPI
// prediction vs emulated OpenMPI. Payload can be reduced for fast runs; 0
// uses the class defaults. Its claims: BH is slower than WH on both back
// ends for each class, and the mean error stays within 30% (paper: 8.11%
// average, 23.5% worst).
func figure15(env *Env, o CampaignOptions, payload int) (*Table, []Claim, error) {
	t := &Table{
		Title:  "Figure 15: NAS DT execution time (seconds)",
		Header: []string{"graph", "class", "smpi_s", "openmpi_s", "err_pct"},
	}
	// The per-(graph, class) payload scan fans out as one campaign: each
	// scenario point runs on both backends concurrently.
	classes := []nas.DTClass{nas.ClassA, nas.ClassB}
	graphs := []nas.DTGraph{nas.WH, nas.BH}
	var jobs []campaign.Job
	for _, class := range classes {
		for _, graph := range graphs {
			dcfg := nas.DTConfig{Graph: graph, Class: class, PayloadBytes: payload}
			procs, err := nas.DTProcs(graph, class)
			if err != nil {
				return nil, nil, err
			}
			id := fmt.Sprintf("fig15/%s-%c", graph, class)
			jobs = append(jobs,
				dtJob(id+"/smpi", surfConfig(env.Griffon, env.Piecewise), dcfg, procs),
				dtJob(id+"/openmpi", emuConfig(env.Griffon), dcfg, procs),
			)
		}
	}
	outs, err := o.run(jobs).Outcomes()
	if err != nil {
		return nil, nil, err
	}
	var pred, ref []float64
	var claims []Claim
	for i, class := range classes {
		for j, graph := range graphs {
			k := 2 * (i*len(graphs) + j)
			s := float64(outs[k].Payload.(*smpi.Report).SimulatedTime)
			o := float64(outs[k+1].Payload.(*smpi.Report).SimulatedTime)
			pred, ref = append(pred, s), append(ref, o)
			t.add(string(graph), string(class), s, o, metrics.ToPercent(metrics.LogError(s, o)))
		}
		// pred and ref end with this class's WH then BH times.
		n := len(pred)
		claims = append(claims,
			claim(fmt.Sprintf("class %c: BH slower than WH on OpenMPI", class), ref[n-1] > ref[n-2], ref[n-1], ref[n-2]),
			claim(fmt.Sprintf("class %c: BH slower than WH on SMPI", class), pred[n-1] > pred[n-2], pred[n-1], pred[n-2]))
	}
	sum := metrics.Summarize(pred, ref)
	t.note("overall: %s", sum)
	t.note("trend check: BH slower than WH on both backends for each class")
	return t, append(claims, claim("smpi mean error vs OpenMPI <= 30%", sum.MeanPct() <= 30, sum.MeanPct())), nil
}

// hostRAM is Figure 16's single-node memory budget: a DT configuration
// whose unfolded footprint exceeds it is the paper's "OM".
const hostRAM = 2 * float64(core.GiB)

// figure16 reproduces Figure 16: per-process memory footprint of DT with
// and without RAM folding, classes A-C, all three graphs. Runs use the
// no-contention analytical backend (the RSS metric does not depend on
// network timing, and blind flows skip the O(flows²) sharing) and the class
// payload scaled by payloadScale in (0,1] to keep runs fast; OM
// classification always uses the class scale. Its claims: folding shrinks
// every configuration that also ran unfolded, by at least 3x on average
// (paper: 11.9x, up to 40.5x), and SH class C (448 processes) is OM.
func figure16(env *Env, o CampaignOptions, payloadScale float64) (*Table, []Claim, error) {
	t := &Table{
		Title:  "Figure 16: DT max RSS per process (MiB), with and without RAM folding",
		Header: []string{"graph", "class", "procs", "smpi_MiB", "folded_MiB", "ratio"},
	}
	cfgRun, err := env.Config(env.Griffon, "nocontention", "piecewise")
	if err != nil {
		return nil, nil, err
	}

	// One campaign covers every configuration: a folded run for each
	// (graph, class), plus an unfolded run when it fits in hostRAM.
	type cfgPoint struct {
		graph    nas.DTGraph
		class    nas.DTClass
		procs    int
		key      string
		unscaled float64 // unfolded footprint at the class payload
		foldIdx  int
		plainIdx int // -1 when the unfolded run would not fit (paper's OM)
	}
	var points []cfgPoint
	var jobs []campaign.Job
	for _, class := range []nas.DTClass{nas.ClassA, nas.ClassB, nas.ClassC} {
		for _, graph := range []nas.DTGraph{nas.WH, nas.BH, nas.SH} {
			procs, err := nas.DTProcs(graph, class)
			if err != nil {
				return nil, nil, err
			}
			pt := cfgPoint{
				graph: graph, class: class, procs: procs, plainIdx: -1,
				key:      fmt.Sprintf("%s-%c", graph, class),
				unscaled: float64(procs) * 2 * float64(nas.DTPayload(class)),
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
			if pt.unscaled <= hostRAM {
				plain := base
				plain.PayloadBytes = payload
				pt.plainIdx = len(jobs)
				jobs = append(jobs, dtJob("fig16/"+pt.key+"/plain", cfgRun, plain, procs))
			}
			points = append(points, pt)
		}
	}
	outs, err := o.run(jobs).Outcomes()
	if err != nil {
		return nil, nil, err
	}
	var claims []Claim
	var ratioSum float64
	ratios := 0
	for _, pt := range points {
		folded := outs[pt.foldIdx].Payload.(*smpi.Report).MaxPeakRSS / payloadScale
		if pt.key == "SH-C" {
			claims = append(claims, claim("SH-C is OM: its unfolded footprint exceeds host RAM", pt.plainIdx < 0, pt.unscaled, hostRAM))
		}
		if pt.plainIdx < 0 {
			t.add(string(pt.graph), string(pt.class), pt.procs, "OM", folded/float64(core.MiB), "-")
			continue
		}
		plain := outs[pt.plainIdx].Payload.(*smpi.Report).MaxPeakRSS / payloadScale
		t.add(string(pt.graph), string(pt.class), pt.procs,
			plain/float64(core.MiB), folded/float64(core.MiB), fmt.Sprintf("%.1fx", plain/folded))
		claims = append(claims, claim(pt.key+": folded footprint below unfolded", folded > 0 && folded < plain, folded, plain))
		ratioSum += plain / folded
		ratios++
	}
	t.note("host RAM budget: %s; OM = out of memory without folding (paper's OM labels)",
		core.FormatBytes(int64(hostRAM)))
	avg := ratioSum / float64(ratios)
	return t, append(claims, claim("average folding ratio >= 3x", avg >= 3, avg)), nil
}
