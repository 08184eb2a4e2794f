package experiments

import (
	"smpigo/internal/core"
	"smpigo/internal/metrics"
)

// PerRankResult holds a per-rank comparison figure (Figures 7 and 11).
type PerRankResult struct {
	Table *Table
	// Series maps a configuration name to its per-rank times in seconds.
	Series map[string][]float64
}

// perRankColumns are the series of Figures 7 and 11 in table order: the
// backend each runs on, its key in PerRankResult.Series and its header.
var perRankColumns = []struct{ backend, series, header string }{
	{"surf", "smpi", "smpi_contention"},
	{"nocontention", "smpi-nocontention", "smpi_nocontention"},
	{"openmpi", "openmpi", "openmpi"},
	{"mpich2", "mpich2", "mpich2"},
}

// perRankFigure runs op over 16 processes with 4 MiB per rank, once per
// column, and tabulates each rank's completion: the shared body of Figures
// 7 and 11, which add their own notes from the returned runs.
func perRankFigure(env *Env, title, op string, columns int) (*PerRankResult, []*collectiveRun, error) {
	const procs = 16
	spec := GridSpec{Op: op, Procs: []int{procs}, Sizes: []int64{4 * core.MiB}}
	res := &PerRankResult{
		Table:  &Table{Title: title, Header: []string{"rank"}},
		Series: make(map[string][]float64, columns),
	}
	for _, c := range perRankColumns[:columns] {
		spec.Backends = append(spec.Backends, c.backend)
		res.Table.Header = append(res.Table.Header, c.header)
	}
	runs, err := env.gridRuns(CampaignOptions{}, spec)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range perRankColumns[:columns] {
		res.Series[c.series] = runs[i].PerRank
	}
	for rank := 0; rank < procs; rank++ {
		row := []any{rank}
		for _, run := range runs {
			row = append(row, run.PerRank[rank])
		}
		res.Table.Add(row...)
	}
	return res, runs, nil
}

// Figure7 reproduces Figure 7: per-process completion of a binomial-tree
// scatter of 4 MiB chunks over 16 processes — SMPI with and without
// contention vs emulated OpenMPI and MPICH2.
func Figure7(env *Env) (*PerRankResult, error) {
	res, runs, err := perRankFigure(env, "Figure 7: per-process binomial scatter, 16 procs, 4MiB chunks (seconds)", "scatter", 4)
	if err != nil {
		return nil, err
	}
	withC, without, om := runs[0], runs[1], runs[2]
	res.Table.Note("no-contention underestimates completion: %.3fs vs %.3fs (contention) vs %.3fs (OpenMPI)",
		without.Total, withC.Total, om.Total)
	res.Table.Note("SMPI(contention) vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank)))
	return res, nil
}

// Figure11 reproduces Figure 11: per-process pairwise all-to-all with 4 MiB
// messages over 16 processes.
func Figure11(env *Env) (*PerRankResult, error) {
	res, runs, err := perRankFigure(env, "Figure 11: per-process pairwise all-to-all, 16 procs, 4MiB messages (seconds)", "alltoall", 3)
	if err != nil {
		return nil, err
	}
	withC, without, om := runs[0], runs[1], runs[2]
	res.Table.Note("SMPI(contention) vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank)))
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
	res := &SweepResult{Table: &Table{
		Title:  title,
		Header: []string{"size", "smpi_s", "openmpi_s", "err_pct"},
	}}
	// The whole size sweep — every (size, backend) point — is one campaign.
	sizes := []int64{64, 1024, 16 * core.KiB, 128 * core.KiB, core.MiB, 4 * core.MiB}
	runs, err := env.gridRuns(CampaignOptions{}, GridSpec{
		Op: op, Procs: []int{16}, Sizes: sizes, Backends: []string{"surf", "openmpi"},
	})
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
	res := &SweepResult{Table: &Table{
		Title:  "Figure 9: scatter time vs process count (4MiB receive buffers)",
		Header: []string{"procs", "smpi_s", "openmpi_s", "mpich2_s", "err_pct"},
	}}
	procCounts := []int{4, 8, 16, 32}
	runs, err := env.gridRuns(CampaignOptions{}, GridSpec{
		Op: "scatter", Procs: procCounts, Sizes: []int64{4 * core.MiB},
		Backends: []string{"surf", "openmpi", "mpich2"},
	})
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
