package experiments

import (
	"fmt"
	"sync"

	"smpigo/internal/calibrate"
	"smpigo/internal/platform"
	"smpigo/internal/skampi"
	"smpigo/internal/surf"
)

// Env is the shared experimental environment: both clusters and the three
// point-to-point models. As the paper calibrates once (Section 6), the models
// are data: Calibrate's result on the emulated griffon, in calibration_data.go.
// Nothing sets its fields after NewEnv; a campaign's settings are its
// CampaignOptions.
type Env struct {
	Griffon *platform.Platform
	Gdx     *platform.Platform

	// The three candidate models of Figures 3-5.
	Default   surf.NetModel
	BestFit   surf.NetModel
	Piecewise surf.NetModel

	// topoPlatforms caches generated topology platforms by axis name so
	// every job of a sweep shares one instance and its route cache.
	topoMu        sync.Mutex
	topoPlatforms map[string]*platform.Platform
}

var envOnce = sync.OnceValues(buildEnv)

// NewEnv builds the environment once per process; it runs no simulation.
func NewEnv() (*Env, error) { return envOnce() }

// Calibrate performs the paper's Section 6 instantiation between hosts a
// and b of plat: the SKaMPI ping-pong on the emulated testbed, the route's
// physical parameters, and the three models fitted to the samples —
// default affine, best-fit affine, piece-wise linear, in that order.
func Calibrate(plat *platform.Platform, a, b *platform.Host) (
	samples []calibrate.Sample, info calibrate.RouteInfo, fits [3]surf.NetModel, err error) {
	samples, err = skampi.PingPong(skampi.PingPongConfig{Base: emuConfig(plat), A: a, B: b})
	if err != nil {
		return nil, info, fits, fmt.Errorf("calibration ping-pong: %w", err)
	}
	info = skampi.RouteInfo(plat, a, b)
	for i, fit := range []func([]calibrate.Sample, calibrate.RouteInfo) (surf.NetModel, error){
		calibrate.DefaultAffine, calibrate.BestFitAffine, calibrate.FitPiecewise,
	} {
		if fits[i], err = fit(samples, info); err != nil {
			return nil, info, fits, err
		}
	}
	return samples, info, fits, nil
}

func buildEnv() (*Env, error) {
	griffon, err := platform.Griffon().Build()
	if err != nil {
		return nil, err
	}
	gdx, err := platform.Gdx().Build()
	if err != nil {
		return nil, err
	}
	return &Env{Griffon: griffon, Gdx: gdx,
		Default: calibration[0], BestFit: calibration[1], Piecewise: calibration[2]}, nil
}
