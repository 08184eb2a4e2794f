package experiments

import (
	"fmt"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/metrics"
	"smpigo/internal/smpi"
)

// collectiveJob wraps one timed run of the named app (see apps) as a
// campaign job whose payload is the *collectiveRun; policy is a rank
// placement (empty means the smpi default layout).
func collectiveJob(id, op string, cfg smpi.Config, policy string, procs int, chunk int64) campaign.Job {
	cfg.Procs = procs
	tags := map[string]string{"procs": fmt.Sprint(procs), "size": core.FormatBytes(chunk)}
	return simJob(id, tags, cfg, policy, measureCollective(apps[op], chunk))
}

// collectiveRuns fans the given jobs out on the env's pool and unwraps the
// *collectiveRun payloads in submission order.
func collectiveRuns(env *Env, jobs []campaign.Job) ([]*collectiveRun, error) {
	outs, err := env.runCampaign(jobs)
	if err != nil {
		return nil, err
	}
	runs := make([]*collectiveRun, len(outs))
	for i, o := range outs {
		runs[i] = o.Payload.(*collectiveRun)
	}
	return runs, nil
}

// PerRankResult holds a per-rank comparison figure (Figures 7 and 11).
type PerRankResult struct {
	Table *Table
	// Series maps a configuration name to its per-rank times in seconds.
	Series map[string][]float64
}

// Figure7 reproduces Figure 7: per-process completion of a binomial-tree
// scatter of 4 MiB chunks over 16 processes — SMPI with and without
// contention vs emulated OpenMPI and MPICH2.
func Figure7(env *Env) (*PerRankResult, error) {
	const procs = 16
	chunk := int64(4 * core.MiB)

	noCfg := surfConfig(env.Griffon, env.Piecewise)
	noCfg.NoContention = true
	runs, err := collectiveRuns(env, []campaign.Job{
		collectiveJob("fig7/scatter/smpi", "scatter", surfConfig(env.Griffon, env.Piecewise), "", procs, chunk),
		collectiveJob("fig7/scatter/smpi-nocontention", "scatter", noCfg, "", procs, chunk),
		collectiveJob("fig7/scatter/openmpi", "scatter", emuConfig(env.Griffon), "", procs, chunk),
		collectiveJob("fig7/scatter/mpich2", "scatter", mpich2Config(env.Griffon), "", procs, chunk),
	})
	if err != nil {
		return nil, err
	}
	withC, without, om, mp := runs[0], runs[1], runs[2], runs[3]

	res := &PerRankResult{
		Table: &Table{
			Title:  "Figure 7: per-process binomial scatter, 16 procs, 4MiB chunks (seconds)",
			Header: []string{"rank", "smpi_contention", "smpi_nocontention", "openmpi", "mpich2"},
		},
		Series: map[string][]float64{
			"smpi":              withC.PerRank,
			"smpi-nocontention": without.PerRank,
			"openmpi":           om.PerRank,
			"mpich2":            mp.PerRank,
		},
	}
	for i := 0; i < procs; i++ {
		res.Table.Add(i, withC.PerRank[i], without.PerRank[i], om.PerRank[i], mp.PerRank[i])
	}
	res.Table.Note("no-contention underestimates completion: %.3fs vs %.3fs (contention) vs %.3fs (OpenMPI)",
		without.Total, withC.Total, om.Total)
	sum := metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank))
	res.Table.Note("SMPI(contention) vs OpenMPI per-rank: %s", sum)
	return res, nil
}

// Figure11 reproduces Figure 11: per-process pairwise all-to-all with 4 MiB
// messages over 16 processes.
func Figure11(env *Env) (*PerRankResult, error) {
	const procs = 16
	chunk := int64(4 * core.MiB)

	noCfg := surfConfig(env.Griffon, env.Piecewise)
	noCfg.NoContention = true
	runs, err := collectiveRuns(env, []campaign.Job{
		collectiveJob("fig11/alltoall/smpi", "alltoall", surfConfig(env.Griffon, env.Piecewise), "", procs, chunk),
		collectiveJob("fig11/alltoall/smpi-nocontention", "alltoall", noCfg, "", procs, chunk),
		collectiveJob("fig11/alltoall/openmpi", "alltoall", emuConfig(env.Griffon), "", procs, chunk),
	})
	if err != nil {
		return nil, err
	}
	withC, without, om := runs[0], runs[1], runs[2]

	res := &PerRankResult{
		Table: &Table{
			Title:  "Figure 11: per-process pairwise all-to-all, 16 procs, 4MiB messages (seconds)",
			Header: []string{"rank", "smpi_contention", "smpi_nocontention", "openmpi"},
		},
		Series: map[string][]float64{
			"smpi":              withC.PerRank,
			"smpi-nocontention": without.PerRank,
			"openmpi":           om.PerRank,
		},
	}
	for i := 0; i < procs; i++ {
		res.Table.Add(i, withC.PerRank[i], without.PerRank[i], om.PerRank[i])
	}
	sum := metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank))
	res.Table.Note("SMPI(contention) vs OpenMPI per-rank: %s", sum)
	res.Table.Note("no-contention vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(without.PerRank), nonZero(om.PerRank)))
	return res, nil
}

// SweepResult holds a size- or proc-sweep accuracy figure
// (Figures 8, 9 and 12).
type SweepResult struct {
	Table *Table
	// X is the swept parameter (bytes or process count); Pred and Ref the
	// SMPI and reference completion times.
	X          []int64
	Pred, Ref  []float64
	Summary    metrics.Summary
	RefSeries2 []float64 // optional second reference (MPICH2 in Figure 9)
}

// sweepSizes are the message sizes of Figures 8 and 12.
func sweepSizes() []int64 {
	return []int64{64, 1024, 16 * core.KiB, 128 * core.KiB, core.MiB, 4 * core.MiB}
}

// Figure8 reproduces Figure 8: binomial scatter accuracy vs message size,
// 16 processes, SMPI vs OpenMPI.
func Figure8(env *Env) (*SweepResult, error) {
	return sweepCollective(env, "Figure 8: scatter time vs message size (16 procs)", "scatter")
}

// Figure12 reproduces Figure 12: pairwise all-to-all accuracy vs message
// size, 16 processes.
func Figure12(env *Env) (*SweepResult, error) {
	return sweepCollective(env, "Figure 12: all-to-all time vs message size (16 procs)", "alltoall")
}

func sweepCollective(env *Env, title, op string) (*SweepResult, error) {
	const procs = 16
	res := &SweepResult{Table: &Table{
		Title:  title,
		Header: []string{"size", "smpi_s", "openmpi_s", "err_pct"},
	}}
	// The whole size sweep — every (size, backend) point — is one campaign.
	sizes := sweepSizes()
	var jobs []campaign.Job
	for _, size := range sizes {
		jobs = append(jobs,
			collectiveJob(fmt.Sprintf("%s/size=%s/smpi", title, core.FormatBytes(size)), op,
				surfConfig(env.Griffon, env.Piecewise), "", procs, size),
			collectiveJob(fmt.Sprintf("%s/size=%s/openmpi", title, core.FormatBytes(size)), op,
				emuConfig(env.Griffon), "", procs, size),
		)
	}
	runs, err := collectiveRuns(env, jobs)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		s, o := runs[2*i], runs[2*i+1]
		res.X = append(res.X, size)
		res.Pred = append(res.Pred, s.Total)
		res.Ref = append(res.Ref, o.Total)
		res.Table.Add(core.FormatBytes(size), s.Total, o.Total,
			metrics.ToPercent(metrics.LogError(s.Total, o.Total)))
	}
	res.Summary = metrics.Summarize(res.Pred, res.Ref)
	res.Table.Note("overall: %s", res.Summary)
	large := metrics.Summarize(res.Pred[len(res.Pred)-2:], res.Ref[len(res.Ref)-2:])
	res.Table.Note("messages >= 1MiB: %s", large)
	return res, nil
}

// Figure9 reproduces Figure 9: binomial scatter with 4 MiB receive buffers
// and a growing number of processes (4 to 32); SMPI vs OpenMPI vs MPICH2.
func Figure9(env *Env) (*SweepResult, error) {
	chunk := int64(4 * core.MiB)
	res := &SweepResult{Table: &Table{
		Title:  "Figure 9: scatter time vs process count (4MiB receive buffers)",
		Header: []string{"procs", "smpi_s", "openmpi_s", "mpich2_s", "err_pct"},
	}}
	procCounts := []int{4, 8, 16, 32}
	var jobs []campaign.Job
	for _, procs := range procCounts {
		jobs = append(jobs,
			collectiveJob(fmt.Sprintf("fig9/procs=%d/smpi", procs), "scatter",
				surfConfig(env.Griffon, env.Piecewise), "", procs, chunk),
			collectiveJob(fmt.Sprintf("fig9/procs=%d/openmpi", procs), "scatter",
				emuConfig(env.Griffon), "", procs, chunk),
			collectiveJob(fmt.Sprintf("fig9/procs=%d/mpich2", procs), "scatter",
				mpich2Config(env.Griffon), "", procs, chunk),
		)
	}
	runs, err := collectiveRuns(env, jobs)
	if err != nil {
		return nil, err
	}
	for i, procs := range procCounts {
		s, o, m := runs[3*i], runs[3*i+1], runs[3*i+2]
		res.X = append(res.X, int64(procs))
		res.Pred = append(res.Pred, s.Total)
		res.Ref = append(res.Ref, o.Total)
		res.RefSeries2 = append(res.RefSeries2, m.Total)
		res.Table.Add(procs, s.Total, o.Total, m.Total,
			metrics.ToPercent(metrics.LogError(s.Total, o.Total)))
	}
	res.Summary = metrics.Summarize(res.Pred, res.Ref)
	res.Table.Note("SMPI vs OpenMPI: %s", res.Summary)
	return res, nil
}

func nonZero(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v <= 0 {
			v = 1e-12
		}
		out[i] = v
	}
	return out
}
