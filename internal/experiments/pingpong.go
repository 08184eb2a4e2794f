package experiments

import (
	"fmt"

	"smpigo/internal/calibrate"
	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/metrics"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
)

// PingPongResult is the outcome of one of Figures 3-5: per-size
// communication times for SKaMPI (emulated testbed) and the three SMPI
// models, plus the per-model accuracy summaries quoted in the paper.
type PingPongResult struct {
	Table     *Table
	Summaries map[string]metrics.Summary
}

// OrderingHolds reports the paper's headline claim for Figures 3-5: the
// piece-wise linear model beats the best-fit affine model, which beats the
// default affine model, in mean logarithmic error.
func (r *PingPongResult) OrderingHolds() bool {
	pwl := r.Summaries["piecewise"].MeanLog
	fit := r.Summaries["best-fit-affine"].MeanLog
	def := r.Summaries["default-affine"].MeanLog
	return pwl < fit && fit < def
}

// PiecewiseBest reports the transferability claim of Figures 4 and 5: the
// piece-wise linear model remains the most accurate when the calibration is
// replayed on a different cluster. (The relative order of the two affine
// models is not guaranteed to transfer and the paper does not claim it.)
func (r *PingPongResult) PiecewiseBest() bool {
	pwl := r.Summaries["piecewise"].MeanLog
	return pwl < r.Summaries["best-fit-affine"].MeanLog &&
		pwl < r.Summaries["default-affine"].MeanLog
}

// pingPongJob wraps one SKaMPI ping-pong sweep (on either backend) between
// hosts a and b as a campaign job: one t_<size> value per sample, their sum
// as the simulated time, the sample set as payload.
func pingPongJob(id string, base smpi.Config, a, b *platform.Host) campaign.Job {
	base.Procs, base.Hosts = 2, []*platform.Host{a, b}
	return simJob(id, map[string]string{"op": "pingpong"}, base, "",
		pingPongRun(nil, func(samples []calibrate.Sample) *campaign.Outcome {
			out := &campaign.Outcome{Values: make(map[string]float64, len(samples))}
			for _, s := range samples {
				out.Values[fmt.Sprintf("t_%d", s.Size)] = s.Time
				out.SimulatedTime += core.Time(s.Time)
			}
			return out
		}))
}

// pingPongFigure runs the SKaMPI reference on the emulator and each model
// on the analytical backend over the same endpoint pair — four independent
// simulations fanned out as one campaign.
func pingPongFigure(env *Env, plat *platform.Platform, a, b *platform.Host, title string) (*PingPongResult, error) {
	models := []surf.NetModel{env.Default, env.BestFit, env.Piecewise}
	jobs := []campaign.Job{pingPongJob(title+"/skampi", emuConfig(plat), a, b)}
	for _, m := range models {
		jobs = append(jobs, pingPongJob(title+"/"+m.Name, surfConfig(plat, m), a, b))
	}
	outs, err := env.runCampaign(jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", title, err)
	}
	ref := outs[0].Payload.([]calibrate.Sample)
	predictions := make(map[string][]calibrate.Sample)
	for i, m := range models {
		predictions[m.Name] = outs[i+1].Payload.([]calibrate.Sample)
	}

	res := &PingPongResult{
		Table: &Table{
			Title:  title,
			Header: []string{"size", "skampi_us", "default_us", "bestfit_us", "pwl_us"},
		},
		Summaries: make(map[string]metrics.Summary),
	}
	for i, s := range ref {
		res.Table.Add(
			core.FormatBytes(s.Size),
			s.Time*1e6,
			predictions["default-affine"][i].Time*1e6,
			predictions["best-fit-affine"][i].Time*1e6,
			predictions["piecewise"][i].Time*1e6,
		)
	}
	for _, m := range models {
		var pred, refv []float64
		for i := range ref {
			pred = append(pred, predictions[m.Name][i].Time)
			refv = append(refv, ref[i].Time)
		}
		sum := metrics.Summarize(pred, refv)
		res.Summaries[m.Name] = sum
		res.Table.Note("%s: %s", m.Name, sum)
	}
	return res, nil
}

// Figure3 reproduces the paper's Figure 3: ping-pong on the calibration
// cluster (griffon), SKaMPI vs the three SMPI models.
func Figure3(env *Env) (*PingPongResult, error) {
	return pingPongFigure(env, env.Griffon,
		env.Griffon.HostByID(0), env.Griffon.HostByID(1),
		"Figure 3: ping-pong on griffon (calibration cluster, 1 switch)")
}

// Figure4 reproduces Figure 4: the griffon calibration replayed on the gdx
// cluster between two nodes behind the same switch.
func Figure4(env *Env) (*PingPongResult, error) {
	return pingPongFigure(env, env.Gdx,
		env.Gdx.HostByID(0), env.Gdx.HostByID(1),
		"Figure 4: ping-pong on gdx (griffon calibration, 1 switch)")
}

// Figure5 reproduces Figure 5: same as Figure 4 but between two gdx nodes
// three switches apart.
func Figure5(env *Env) (*PingPongResult, error) {
	a := env.Gdx.HostByID(0)
	var b *platform.Host
	for _, h := range env.Gdx.Hosts() {
		if h.Cabinet != a.Cabinet {
			b = h
			break
		}
	}
	if b == nil {
		return nil, fmt.Errorf("figure 5: no cross-cabinet host on gdx")
	}
	if platform.SwitchHops(a, b) != 3 {
		return nil, fmt.Errorf("figure 5: endpoints are not 3 switches apart")
	}
	return pingPongFigure(env, env.Gdx, a, b,
		"Figure 5: ping-pong on gdx across 3 switches (griffon calibration)")
}
