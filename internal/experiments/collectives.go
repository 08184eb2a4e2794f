package experiments

import (
	"fmt"
	"math"
	"slices"

	"smpigo/internal/core"
	"smpigo/internal/metrics"
)

// perRankColumns are the series of Figures 7 and 11 in table order: the
// backend each runs on and its header.
var perRankColumns = []struct{ backend, header string }{
	{"surf", "smpi_contention"},
	{"nocontention", "smpi_nocontention"},
	{"openmpi", "openmpi"},
	{"mpich2", "mpich2"},
}

// perRankFigure runs op over 16 processes with 4 MiB per rank, once per
// column, and tabulates each rank's completion: the shared body of Figures
// 7 and 11, which add their own notes and claims from the returned runs.
func perRankFigure(env *Env, title, op string, columns int) (*Table, []*collectiveRun, error) {
	const procs = 16
	spec := GridSpec{Op: op, Procs: []int{procs}, Sizes: []int64{4 * core.MiB}}
	t := &Table{Title: title, Header: []string{"rank"}}
	for _, c := range perRankColumns[:columns] {
		spec.Backends = append(spec.Backends, c.backend)
		t.Header = append(t.Header, c.header)
	}
	runs, err := env.gridRuns(CampaignOptions{}, spec)
	if err != nil {
		return nil, nil, err
	}
	for rank := 0; rank < procs; rank++ {
		row := []any{rank}
		for _, run := range runs {
			row = append(row, run.PerRank[rank])
		}
		t.add(row...)
	}
	return t, runs, nil
}

// figure7 reproduces Figure 7: per-process completion of a binomial-tree
// scatter of 4 MiB chunks over 16 processes — SMPI with and without
// contention vs emulated OpenMPI and MPICH2. The paper's claims, on the
// slowest rank: the no-contention model always underestimates, and
// contention-aware SMPI lands near both real implementations.
func figure7(env *Env) (*Table, []Claim, error) {
	t, runs, err := perRankFigure(env, "Figure 7: per-process binomial scatter, 16 procs, 4MiB chunks (seconds)", "scatter", 4)
	if err != nil {
		return nil, nil, err
	}
	withC, without, om := runs[0], runs[1], runs[2]
	t.note("no-contention underestimates completion: %.3fs vs %.3fs (contention) vs %.3fs (OpenMPI)",
		without.Total, withC.Total, om.Total)
	t.note("SMPI(contention) vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank)))
	maxC, maxNoC, maxOM, maxMP := slices.Max(withC.PerRank), slices.Max(without.PerRank), slices.Max(om.PerRank), slices.Max(runs[3].PerRank)
	return t, []Claim{
		claim("slowest rank: no-contention < OpenMPI", maxNoC < maxOM, maxNoC, maxOM),
		claim("slowest rank: no-contention < contention", maxNoC < maxC, maxNoC, maxC),
		claim("slowest rank: contention within 35% of OpenMPI", spread(maxC, maxOM) <= 0.35, maxC, maxOM),
		claim("slowest rank: OpenMPI within 35% of MPICH2", spread(maxOM, maxMP) <= 0.35, maxOM, maxMP),
	}, nil
}

// figure11 reproduces Figure 11: per-process pairwise all-to-all with 4 MiB
// messages over 16 processes. Paper: ~78% error without contention, <1%
// with it (the claim accepts 30%).
func figure11(env *Env) (*Table, []Claim, error) {
	t, runs, err := perRankFigure(env, "Figure 11: per-process pairwise all-to-all, 16 procs, 4MiB messages (seconds)", "alltoall", 3)
	if err != nil {
		return nil, nil, err
	}
	withC, without, om := runs[0], runs[1], runs[2]
	t.note("SMPI(contention) vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(withC.PerRank), nonZero(om.PerRank)))
	t.note("no-contention vs OpenMPI per-rank: %s",
		metrics.Summarize(nonZero(without.PerRank), nonZero(om.PerRank)))
	maxC, maxNoC, maxOM := slices.Max(withC.PerRank), slices.Max(without.PerRank), slices.Max(om.PerRank)
	return t, []Claim{
		claim("slowest rank: no-contention < OpenMPI", maxNoC < maxOM, maxNoC, maxOM),
		claim("slowest rank: contention within ±30% of OpenMPI", within(maxC, maxOM, 0.3), maxC, maxOM),
	}, nil
}

// figure8 reproduces Figure 8: binomial scatter accuracy vs message size,
// 16 processes, SMPI vs OpenMPI.
func figure8(env *Env) (*Table, []Claim, error) {
	return sweepCollective(env, "Figure 8: scatter time vs message size (16 procs)", "scatter", 0.25)
}

// figure12 reproduces Figure 12: pairwise all-to-all accuracy vs message
// size, 16 processes.
func figure12(env *Env) (*Table, []Claim, error) {
	return sweepCollective(env, "Figure 12: all-to-all time vs message size (16 procs)", "alltoall", 0.3)
}

// sweepCollective runs op over a message-size sweep on SMPI and OpenMPI.
// Its claims: messages of 1 MiB and more (the last two sizes) are predicted
// within ±tol of OpenMPI.
func sweepCollective(env *Env, title, op string, tol float64) (*Table, []Claim, error) {
	t := &Table{
		Title:  title,
		Header: []string{"size", "smpi_s", "openmpi_s", "err_pct"},
	}
	// The whole size sweep — every (size, backend) point — is one campaign.
	sizes := []int64{64, 1024, 16 * core.KiB, 128 * core.KiB, core.MiB, 4 * core.MiB}
	runs, err := env.gridRuns(CampaignOptions{}, GridSpec{
		Op: op, Procs: []int{16}, Sizes: sizes, Backends: []string{"surf", "openmpi"},
	})
	if err != nil {
		return nil, nil, err
	}
	var pred, ref []float64
	var claims []Claim
	for i, size := range sizes {
		s, o := runs[2*i].Total, runs[2*i+1].Total
		pred, ref = append(pred, s), append(ref, o)
		t.add(core.FormatBytes(size), s, o, metrics.ToPercent(metrics.LogError(s, o)))
		if size >= core.MiB {
			claims = append(claims, claim(fmt.Sprintf("%s: smpi within ±%g%% of OpenMPI", core.FormatBytes(size), tol*100),
				within(s, o, tol), s, o))
		}
	}
	t.note("overall: %s", metrics.Summarize(pred, ref))
	t.note("messages >= 1MiB: %s", metrics.Summarize(pred[len(pred)-2:], ref[len(ref)-2:]))
	return t, claims, nil
}

// figure9 reproduces Figure 9: binomial scatter with 4 MiB receive buffers
// and a growing number of processes (4 to 32); SMPI vs OpenMPI vs MPICH2.
// The paper shows very consistent results across process counts; the
// total data, and so the time, grows with P.
func figure9(env *Env) (*Table, []Claim, error) {
	t := &Table{
		Title:  "Figure 9: scatter time vs process count (4MiB receive buffers)",
		Header: []string{"procs", "smpi_s", "openmpi_s", "mpich2_s", "err_pct"},
	}
	procCounts := []int{4, 8, 16, 32}
	runs, err := env.gridRuns(CampaignOptions{}, GridSpec{
		Op: "scatter", Procs: procCounts, Sizes: []int64{4 * core.MiB},
		Backends: []string{"surf", "openmpi", "mpich2"},
	})
	if err != nil {
		return nil, nil, err
	}
	var pred, ref []float64
	rising := true
	for i, procs := range procCounts {
		s, o, m := runs[3*i].Total, runs[3*i+1].Total, runs[3*i+2].Total
		if i > 0 && s <= pred[i-1] {
			rising = false
		}
		pred, ref = append(pred, s), append(ref, o)
		t.add(procs, s, o, m, metrics.ToPercent(metrics.LogError(s, o)))
	}
	sum := metrics.Summarize(pred, ref)
	t.note("SMPI vs OpenMPI: %s", sum)
	return t, []Claim{
		claim("smpi mean error vs OpenMPI <= 30%", sum.MeanPct() <= 30, sum.MeanPct()),
		claim("smpi time rises with the process count", rising, pred...),
	}, nil
}

// within reports whether pred lies within ±tol (a fraction) of ref.
func within(pred, ref, tol float64) bool {
	rel := pred/ref - 1
	return rel >= -tol && rel <= tol
}

// spread is how far apart a and b are, as a fraction of the smaller one.
func spread(a, b float64) float64 { return math.Max(a, b)/math.Min(a, b) - 1 }

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
