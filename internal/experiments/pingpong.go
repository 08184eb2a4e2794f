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
// simulations fanned out as one campaign. It returns the table and each
// model's accuracy summary against the reference, keyed by model name.
func pingPongFigure(env *Env, o CampaignOptions, plat *platform.Platform, a, b *platform.Host, title string) (*Table, map[string]metrics.Summary, error) {
	models := []surf.NetModel{env.Default, env.BestFit, env.Piecewise}
	jobs := []campaign.Job{pingPongJob(title+"/skampi", emuConfig(plat), a, b)}
	for _, m := range models {
		jobs = append(jobs, pingPongJob(title+"/"+m.Name, surfConfig(plat, m), a, b))
	}
	outs, err := o.run(jobs).Outcomes()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", title, err)
	}
	ref := outs[0].Payload.([]calibrate.Sample)
	predictions := make(map[string][]calibrate.Sample)
	for i, m := range models {
		predictions[m.Name] = outs[i+1].Payload.([]calibrate.Sample)
	}

	t := &Table{
		Title:  title,
		Header: []string{"size", "skampi_us", "default_us", "bestfit_us", "pwl_us"},
	}
	for i, s := range ref {
		t.add(
			core.FormatBytes(s.Size),
			s.Time*1e6,
			predictions["default-affine"][i].Time*1e6,
			predictions["best-fit-affine"][i].Time*1e6,
			predictions["piecewise"][i].Time*1e6,
		)
	}
	summaries := make(map[string]metrics.Summary, len(models))
	for _, m := range models {
		var pred, refv []float64
		for i := range ref {
			pred = append(pred, predictions[m.Name][i].Time)
			refv = append(refv, ref[i].Time)
		}
		sum := metrics.Summarize(pred, refv)
		summaries[m.Name] = sum
		t.note("%s: %s", m.Name, sum)
	}
	return t, summaries, nil
}

// piecewiseClaims are the claims of Figures 4 and 5, where the griffon
// calibration is replayed on gdx: the piece-wise model stays the most
// accurate (the relative order of the two affine models is not guaranteed
// to transfer and the paper does not claim it), within maxPct mean error.
func piecewiseClaims(sums map[string]metrics.Summary, maxPct float64) []Claim {
	pwl, fit, def := sums["piecewise"].MeanLog, sums["best-fit-affine"].MeanLog, sums["default-affine"].MeanLog
	pct := sums["piecewise"].MeanPct()
	return []Claim{
		claim("mean log error: piecewise < best-fit, piecewise < default", pwl < fit && pwl < def, pwl, fit, def),
		claim(fmt.Sprintf("piecewise mean error <= %g%%", maxPct), pct <= maxPct, pct),
	}
}

// figure3 reproduces the paper's Figure 3: ping-pong on the calibration
// cluster (griffon), SKaMPI vs the three SMPI models. The paper's headline
// claim: the piece-wise linear model beats the best-fit affine model, which
// beats the default affine model, in mean logarithmic error (paper:
// piece-wise 8.63%, default affine ~32%).
func figure3(env *Env, o CampaignOptions) (*Table, []Claim, error) {
	t, sums, err := pingPongFigure(env, o, env.Griffon,
		env.Griffon.HostByID(0), env.Griffon.HostByID(1),
		"Figure 3: ping-pong on griffon (calibration cluster, 1 switch)")
	if err != nil {
		return nil, nil, err
	}
	pwl, fit, def := sums["piecewise"].MeanLog, sums["best-fit-affine"].MeanLog, sums["default-affine"].MeanLog
	pwlPct, defPct := sums["piecewise"].MeanPct(), sums["default-affine"].MeanPct()
	return t, []Claim{
		claim("mean log error: piecewise < best-fit < default", pwl < fit && fit < def, pwl, fit, def),
		claim("piecewise mean error <= 20%", pwlPct <= 20, pwlPct),
		claim("default affine mean error >= 10%", defPct >= 10, defPct),
	}, nil
}

// figure4 reproduces Figure 4: the griffon calibration replayed on the gdx
// cluster between two nodes behind the same switch (paper: piece-wise
// 7.9%).
func figure4(env *Env, o CampaignOptions) (*Table, []Claim, error) {
	t, sums, err := pingPongFigure(env, o, env.Gdx,
		env.Gdx.HostByID(0), env.Gdx.HostByID(1),
		"Figure 4: ping-pong on gdx (griffon calibration, 1 switch)")
	if err != nil {
		return nil, nil, err
	}
	return t, piecewiseClaims(sums, 30), nil
}

// figure5 reproduces Figure 5: same as Figure 4 but between two gdx nodes
// three switches apart (paper: piece-wise 9.9%).
func figure5(env *Env, o CampaignOptions) (*Table, []Claim, error) {
	a := env.Gdx.HostByID(0)
	var b *platform.Host
	for _, h := range env.Gdx.Hosts() {
		if h.Cabinet != a.Cabinet {
			b = h
			break
		}
	}
	if b == nil {
		return nil, nil, fmt.Errorf("figure 5: no cross-cabinet host on gdx")
	}
	if platform.SwitchHops(a, b) != 3 {
		return nil, nil, fmt.Errorf("figure 5: endpoints are not 3 switches apart")
	}
	t, sums, err := pingPongFigure(env, o, env.Gdx, a, b,
		"Figure 5: ping-pong on gdx across 3 switches (griffon calibration)")
	if err != nil {
		return nil, nil, err
	}
	return t, piecewiseClaims(sums, 35), nil
}
