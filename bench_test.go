// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Section 7), plus ablation benchmarks for the main design choices
// (collective variants, contention on/off, eager threshold).
//
// Each BenchmarkFigN* runs the corresponding harness from
// internal/experiments and reports the figure's headline quantities as
// custom benchmark metrics, so that
//
//	go test -bench=. -benchmem
//
// regenerates the entire campaign; cmd/experiments prints the full tables.
package smpigo_test

import (
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/nas"
	"smpigo/internal/smpi"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func reportPct(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

func BenchmarkFig3PingPongGriffon(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(env)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OrderingHolds() {
			b.Fatal("model accuracy ordering violated")
		}
		reportPct(b, "pwl_err_%", res.Summaries["piecewise"].MeanPct())
		reportPct(b, "bestfit_err_%", res.Summaries["best-fit-affine"].MeanPct())
		reportPct(b, "default_err_%", res.Summaries["default-affine"].MeanPct())
	}
}

func BenchmarkFig4PingPongGdx(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(env)
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "pwl_err_%", res.Summaries["piecewise"].MeanPct())
		reportPct(b, "default_err_%", res.Summaries["default-affine"].MeanPct())
	}
}

func BenchmarkFig5PingPongGdx3Switch(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(env)
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "pwl_err_%", res.Summaries["piecewise"].MeanPct())
	}
}

func BenchmarkFig7ScatterPerRank(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(env)
		if err != nil {
			b.Fatal(err)
		}
		max := func(vs []float64) float64 {
			m := 0.0
			for _, v := range vs {
				if v > m {
					m = v
				}
			}
			return m
		}
		reportPct(b, "smpi_s", max(res.Series["smpi"]))
		reportPct(b, "nocontention_s", max(res.Series["smpi-nocontention"]))
		reportPct(b, "openmpi_s", max(res.Series["openmpi"]))
		reportPct(b, "mpich2_s", max(res.Series["mpich2"]))
	}
}

func BenchmarkFig8ScatterVsSize(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(env)
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "mean_err_%", res.Summary.MeanPct())
	}
}

func BenchmarkFig9ScatterVsProcs(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(env)
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "mean_err_%", res.Summary.MeanPct())
	}
}

func BenchmarkFig11AlltoallPerRank(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(env)
		if err != nil {
			b.Fatal(err)
		}
		max := func(vs []float64) float64 {
			m := 0.0
			for _, v := range vs {
				if v > m {
					m = v
				}
			}
			return m
		}
		reportPct(b, "smpi_s", max(res.Series["smpi"]))
		reportPct(b, "nocontention_s", max(res.Series["smpi-nocontention"]))
		reportPct(b, "openmpi_s", max(res.Series["openmpi"]))
	}
}

func BenchmarkFig12AlltoallVsSize(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(env)
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "mean_err_%", res.Summary.MeanPct())
	}
}

func BenchmarkFig15NASDT(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure15(env, 2*int(core.MiB))
		if err != nil {
			b.Fatal(err)
		}
		reportPct(b, "mean_err_%", res.Summary.MeanPct())
		reportPct(b, "bh_over_wh_A", res.OpenMPI["BH-A"]/res.OpenMPI["WH-A"])
	}
}

func BenchmarkFig16RAMFolding(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure16(env, 1.0/8, 2*float64(core.GiB))
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for key, plain := range res.Plain {
			sum += plain / res.Folded[key]
			n++
		}
		reportPct(b, "avg_fold_ratio_x", sum/float64(n))
	}
}

func BenchmarkFig17SimSpeed(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure17(env)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		reportPct(b, "speedup_vs_real_64MiB", res.RealTime[last]/res.SimWall[last].Seconds())
	}
}

func BenchmarkFig18CPUSampling(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure18(env, 21, 64)
		if err != nil {
			b.Fatal(err)
		}
		// Wall-time ratio between full execution and 25% sampling.
		reportPct(b, "wall_full_over_quarter", res.Wall[0].Seconds()/res.Wall[3].Seconds())
	}
}

// BenchmarkCampaignThroughput measures the campaign engine's job throughput
// on scenario grids shaped like the repository's figure reproductions: the
// original griffon scatter grid, plus the same sweep pushed through a
// 64-host fat-tree (fattree:8x8:1x8) where the LMM solver — not the actor
// kernel — dominates wall time (see BENCH_lmm.json). It reports jobs/sec;
// simulated results are bit-identical at any worker count, so the pool size
// is purely a throughput knob.
func BenchmarkCampaignThroughput(b *testing.B) {
	grids := []struct {
		name string
		spec experiments.GridSpec
	}{
		{
			name: "griffon",
			spec: experiments.GridSpec{
				Op:       "scatter",
				Procs:    []int{2, 4, 8, 16},
				Sizes:    []int64{16 * core.KiB, 64 * core.KiB, 256 * core.KiB},
				Models:   []string{"piecewise", "default"},
				Backends: []string{"surf"},
			},
		},
		{
			name: "fattree-8x8-1x8",
			spec: experiments.GridSpec{
				Op:         "scatter",
				Procs:      []int{16, 64},
				Sizes:      []int64{64 * core.KiB, 256 * core.KiB},
				Models:     []string{"piecewise"},
				Backends:   []string{"surf"},
				Topologies: []string{"fattree:8x8:1x8"},
			},
		},
	}
	for _, g := range grids {
		b.Run(g.name, func(b *testing.B) {
			env := benchEnv(b)
			var fingerprint string
			jobs := 0
			for i := 0; i < b.N; i++ {
				sum, err := env.GridCampaign(g.spec)
				if err != nil {
					b.Fatal(err)
				}
				if err := sum.Err(); err != nil {
					b.Fatal(err)
				}
				jobs = sum.Jobs
				fp := sum.Fingerprint()
				if fingerprint == "" {
					fingerprint = fp
				} else if fp != fingerprint {
					b.Fatalf("campaign fingerprint drifted: %s vs %s", fp, fingerprint)
				}
			}
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// --- ablation benchmarks ---

func benchCollective(b *testing.B, algos smpi.Algorithms, procs int, chunk int64,
	op func(*smpi.Rank, *smpi.Comm, []byte, []byte)) {
	env := benchEnv(b)
	var simulated core.Time
	for i := 0; i < b.N; i++ {
		cfg := smpi.Config{
			Procs:      procs,
			Platform:   env.Griffon,
			Model:      env.Piecewise,
			Algorithms: algos,
		}
		rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
			c := r.Comm()
			var sendbuf []byte
			if r.Rank() == 0 {
				sendbuf = make([]byte, int64(procs)*chunk)
			}
			recvbuf := make([]byte, chunk)
			op(r, c, sendbuf, recvbuf)
		})
		if err != nil {
			b.Fatal(err)
		}
		simulated = rep.SimulatedTime
	}
	b.ReportMetric(float64(simulated), "simulated_s")
}

// BenchmarkAblationScatterBinomialVsFlat compares the paper's binomial-tree
// scatter against a flat (root-sends-all) variant: the flat variant
// serializes everything on the root's up-link.
func BenchmarkAblationScatterBinomialVsFlat(b *testing.B) {
	for _, algo := range []string{"binomial", "flat"} {
		b.Run(algo, func(b *testing.B) {
			benchCollective(b, smpi.Algorithms{Scatter: algo}, 16, 4*core.MiB,
				func(r *smpi.Rank, c *smpi.Comm, sendbuf, recvbuf []byte) {
					c.Scatter(r, sendbuf, recvbuf, 0)
				})
		})
	}
}

// BenchmarkAblationAlltoallPairwiseVsFlat compares the paper's pairwise
// all-to-all schedule against the unscheduled flood.
func BenchmarkAblationAlltoallPairwiseVsFlat(b *testing.B) {
	env := benchEnv(b)
	for _, algo := range []string{"pairwise", "flat"} {
		b.Run(algo, func(b *testing.B) {
			var simulated core.Time
			for i := 0; i < b.N; i++ {
				cfg := smpi.Config{
					Procs:      16,
					Platform:   env.Griffon,
					Model:      env.Piecewise,
					Algorithms: smpi.Algorithms{Alltoall: algo},
				}
				rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
					c := r.Comm()
					sendbuf := make([]byte, 16*core.MiB)
					recvbuf := make([]byte, 16*core.MiB)
					c.Alltoall(r, sendbuf, recvbuf)
				})
				if err != nil {
					b.Fatal(err)
				}
				simulated = rep.SimulatedTime
			}
			b.ReportMetric(float64(simulated), "simulated_s")
		})
	}
}

// BenchmarkAblationContention quantifies what the contention model costs in
// simulation speed and changes in prediction.
func BenchmarkAblationContention(b *testing.B) {
	env := benchEnv(b)
	for _, contention := range []bool{true, false} {
		name := "on"
		if !contention {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var simulated core.Time
			for i := 0; i < b.N; i++ {
				cfg := smpi.Config{
					Procs:        16,
					Platform:     env.Griffon,
					Model:        env.Piecewise,
					NoContention: !contention,
				}
				rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
					c := r.Comm()
					sendbuf := make([]byte, 16*256*core.KiB)
					recvbuf := make([]byte, 16*256*core.KiB)
					c.Alltoall(r, sendbuf, recvbuf)
				})
				if err != nil {
					b.Fatal(err)
				}
				simulated = rep.SimulatedTime
			}
			b.ReportMetric(float64(simulated), "simulated_s")
		})
	}
}

// BenchmarkAblationEagerThreshold sweeps the eager/rendezvous switch point,
// the knob behind the piece-wise model's third segment boundary.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	env := benchEnv(b)
	for _, thresholdKiB := range []int64{4, 64, 1024} {
		b.Run(core.FormatBytes(thresholdKiB*core.KiB), func(b *testing.B) {
			var simulated core.Time
			for i := 0; i < b.N; i++ {
				cfg := smpi.Config{
					Procs:          8,
					Platform:       env.Griffon,
					Model:          env.Piecewise,
					EagerThreshold: thresholdKiB * core.KiB,
				}
				rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
					c := r.Comm()
					buf := make([]byte, 128*core.KiB)
					if r.Rank() == 0 {
						for dst := 1; dst < r.Size(); dst++ {
							r.Send(c, buf, dst, 0)
						}
					} else {
						r.Elapse(0.01) // receivers are late: eager wins
						r.Recv(c, buf, 0, 0)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				simulated = rep.SimulatedTime
			}
			b.ReportMetric(float64(simulated), "simulated_s")
		})
	}
}

// BenchmarkKernelScaling measures raw simulation throughput: a 448-rank DT
// shuffle (the paper's largest configuration, Section 7.2) on the
// analytical backend.
func BenchmarkKernelScaling448Ranks(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		app, _ := nas.DT(nas.DTConfig{
			Graph: nas.SH, Class: nas.ClassC,
			PayloadBytes: 256 * 1024, Fold: true,
		})
		cfg := smpi.Config{
			Procs:        448,
			Platform:     env.Griffon,
			Model:        env.Piecewise,
			NoContention: true,
		}
		if _, err := smpi.Run(cfg, app); err != nil {
			b.Fatal(err)
		}
	}
}
