package skampi

import (
	"testing"

	"smpigo/internal/calibrate"
	"smpigo/internal/core"
	"smpigo/internal/metrics"
	"smpigo/internal/platform"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
)

func griffon(t *testing.T) *platform.Platform {
	t.Helper()
	p, err := platform.Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// summarizeModel computes the log-error summary of a model's predictions
// against measured samples.
func summarizeModel(m surf.NetModel, info calibrate.RouteInfo, samples []calibrate.Sample) metrics.Summary {
	var pred, ref []float64
	for _, s := range samples {
		pred = append(pred, calibrate.Predict(m, info, s.Size))
		ref = append(ref, s.Time)
	}
	return metrics.Summarize(pred, ref)
}

func TestDefaultSizesShape(t *testing.T) {
	sizes := defaultSizes()
	if sizes[0] != 1 {
		t.Error("sizes should start at 1 byte")
	}
	last := sizes[len(sizes)-1]
	if last != 4*core.MiB {
		t.Errorf("sizes should end at 4MiB, got %d", last)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes must be strictly increasing")
		}
	}
	if len(sizes) < 30 {
		t.Errorf("only %d sizes; need enough for 3-segment fitting", len(sizes))
	}
}

func TestPingPongValidation(t *testing.T) {
	p := griffon(t)
	if _, err := PingPong(PingPongConfig{Base: smpi.Config{Platform: p}}); err == nil {
		t.Error("missing endpoints should fail")
	}
	h := p.HostByID(0)
	if _, err := PingPong(PingPongConfig{Base: smpi.Config{Platform: p}, A: h, B: h}); err == nil {
		t.Error("identical endpoints should fail")
	}
}

func TestPingPongOnEmuBackend(t *testing.T) {
	p := griffon(t)
	samples, err := PingPong(PingPongConfig{
		Base:  smpi.Config{Platform: p, Backend: smpi.BackendEmu},
		A:     p.HostByID(0),
		B:     p.HostByID(1),
		Sizes: []int64{1, 1024, 64 * core.KiB, core.MiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			t.Errorf("ping-pong time not increasing: %+v", samples)
		}
	}
	// 1 MiB one-way should be within 2.5x of raw wire time.
	wire := float64(core.MiB) / 125e6
	if samples[3].Time < wire || samples[3].Time > 2.5*wire {
		t.Errorf("1MiB one-way %v, wire %v", samples[3].Time, wire)
	}
}

func TestPingPongSurfMatchesModel(t *testing.T) {
	// On the surf backend the measured one-way ping-pong time must equal
	// the model's closed-form prediction: the driver adds no overhead.
	p := griffon(t)
	a, b := p.HostByID(0), p.HostByID(1)
	info := RouteInfo(p, a, b)
	model := surf.Ideal()
	samples, err := PingPong(PingPongConfig{
		Base:  smpi.Config{Platform: p, Backend: smpi.BackendSurf, Model: model},
		A:     a,
		B:     b,
		Sizes: []int64{1024, core.MiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		want := calibrate.Predict(model, info, s.Size)
		if e := metrics.LogError(s.Time, want); metrics.ToPercent(e) > 1 {
			t.Errorf("size %d: measured %v, model predicts %v", s.Size, s.Time, want)
		}
	}
}

func TestCalibrationPipelineOnEmu(t *testing.T) {
	// End-to-end reproduction of the Figure 3 setup: measure ping-pong on
	// the emulated griffon, fit all three models, check the accuracy
	// ordering piecewise < best-fit affine < default affine.
	p := griffon(t)
	a, b := p.HostByID(0), p.HostByID(1)
	samples, err := PingPong(PingPongConfig{
		Base: smpi.Config{Platform: p, Backend: smpi.BackendEmu},
		A:    a, B: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := RouteInfo(p, a, b)
	def, err := calibrate.DefaultAffine(samples, info)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := calibrate.BestFitAffine(samples, info)
	if err != nil {
		t.Fatal(err)
	}
	pwl, err := calibrate.FitPiecewise(samples, info)
	if err != nil {
		t.Fatal(err)
	}
	sDef := summarizeModel(def, info, samples)
	sFit := summarizeModel(fit, info, samples)
	sPwl := summarizeModel(pwl, info, samples)
	if !(sPwl.MeanLog < sFit.MeanLog && sFit.MeanLog < sDef.MeanLog) {
		t.Errorf("accuracy ordering violated: pwl %v, best-fit %v, default %v", sPwl, sFit, sDef)
	}
	if sPwl.MeanPct() > 15 {
		t.Errorf("piecewise error on calibration data too high: %v", sPwl)
	}
}

func TestRouteInfo(t *testing.T) {
	p := griffon(t)
	info := RouteInfo(p, p.HostByID(0), p.HostByID(1))
	if info.Bandwidth != 125e6 {
		t.Errorf("bottleneck %v, want 125e6", info.Bandwidth)
	}
	if info.Latency <= 0 {
		t.Error("non-positive latency")
	}
}
