package calibrate

import (
	"math"
	"testing"

	"smpigo/internal/metrics"
	"smpigo/internal/surf"
)

// synthSamples generates measurements from a known 3-segment ground truth
// with boundaries at 1 KiB and 64 KiB.
func synthSamples() ([]Sample, RouteInfo, surf.NetModel) {
	route := RouteInfo{Latency: 40e-6, Bandwidth: 125e6}
	truth := surf.NetModel{Name: "truth", Segments: []surf.Segment{
		{MaxBytes: 1024, LatFactor: 1.5, BwFactor: 0.75},
		{MaxBytes: 65536, LatFactor: 2.2, BwFactor: 0.45},
		{MaxBytes: math.MaxInt64, LatFactor: 5.0, BwFactor: 0.92},
	}}
	var samples []Sample
	for s := int64(1); s <= 4<<20; s *= 2 {
		samples = append(samples, Sample{Size: s, Time: Predict(truth, route, s)})
		if mid := s + s/2; s >= 8 && mid < 4<<20 {
			samples = append(samples, Sample{Size: mid, Time: Predict(truth, route, mid)})
		}
	}
	return samples, route, truth
}

func TestValidation(t *testing.T) {
	route := RouteInfo{Latency: 1e-5, Bandwidth: 125e6}
	if _, err := DefaultAffine(nil, route); err == nil {
		t.Error("no samples should fail")
	}
	bad := make([]Sample, 10)
	if _, err := DefaultAffine(bad, route); err == nil {
		t.Error("zero-time samples should fail")
	}
	good, _, _ := synthSamples()
	if _, err := DefaultAffine(good, RouteInfo{}); err == nil {
		t.Error("invalid route should fail")
	}
}

func TestDefaultAffine(t *testing.T) {
	samples, route, truth := synthSamples()
	m, err := DefaultAffine(samples, route)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 {
		t.Fatalf("default affine has %d segments", len(m.Segments))
	}
	// Latency factor from the 1-byte sample: close to truth's small-message
	// latency factor (plus the byte's transfer time, which is negligible).
	wantLat := Predict(truth, route, 1) / route.Latency
	if got := m.Segments[0].LatFactor; math.Abs(got-wantLat) > 0.01*wantLat {
		t.Errorf("latFactor = %v, want ~%v", got, wantLat)
	}
	if m.Segments[0].BwFactor != 0.92 {
		t.Errorf("bwFactor = %v, want 0.92", m.Segments[0].BwFactor)
	}
}

func TestBestFitAffineBeatsDefault(t *testing.T) {
	samples, route, _ := synthSamples()
	def, err := DefaultAffine(samples, route)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := BestFitAffine(samples, route)
	if err != nil {
		t.Fatal(err)
	}
	errOf := func(m surf.NetModel) float64 {
		var pred, ref []float64
		for _, s := range samples {
			pred = append(pred, Predict(m, route, s.Size))
			ref = append(ref, s.Time)
		}
		return metrics.Summarize(pred, ref).MeanLog
	}
	if errOf(fit) > errOf(def) {
		t.Errorf("best-fit affine (%v) should not lose to default affine (%v)",
			errOf(fit), errOf(def))
	}
}

func TestFitPiecewiseRecoversTruth(t *testing.T) {
	samples, route, truth := synthSamples()
	m, err := FitPiecewise(samples, route)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 3 {
		t.Fatalf("fitted %d segments, want 3", len(m.Segments))
	}
	// The fit should reproduce the generating model almost exactly since
	// the data is noiseless: max log error below 2%.
	var pred, ref []float64
	for _, s := range samples {
		pred = append(pred, Predict(m, route, s.Size))
		ref = append(ref, s.Time)
	}
	sum := metrics.Summarize(pred, ref)
	if metrics.ToPercent(sum.MaxLog) > 2 {
		t.Errorf("piecewise fit error %v too high", sum)
	}
	// Boundaries should land near the truth's 1KiB and 64KiB.
	b0, b1 := m.Segments[0].MaxBytes, m.Segments[1].MaxBytes
	if b0 < 256 || b0 > 4096 {
		t.Errorf("first boundary %d not near 1KiB", b0)
	}
	if b1 < 16384 || b1 > 262144 {
		t.Errorf("second boundary %d not near 64KiB", b1)
	}
	_ = truth
}

func TestPiecewiseBeatsAffinesOnPiecewiseData(t *testing.T) {
	// The paper's core Figure 3 claim, on synthetic ground truth.
	samples, route, _ := synthSamples()
	def, _ := DefaultAffine(samples, route)
	fit, _ := BestFitAffine(samples, route)
	pwl, err := FitPiecewise(samples, route)
	if err != nil {
		t.Fatal(err)
	}
	meanErr := func(m surf.NetModel) float64 {
		var pred, ref []float64
		for _, s := range samples {
			pred = append(pred, Predict(m, route, s.Size))
			ref = append(ref, s.Time)
		}
		return metrics.Summarize(pred, ref).MeanLog
	}
	ePwl, eFit, eDef := meanErr(pwl), meanErr(fit), meanErr(def)
	if !(ePwl < eFit && eFit < eDef) {
		t.Errorf("error ordering violated: pwl %v, best-fit %v, default %v", ePwl, eFit, eDef)
	}
}

func TestPredictMatchesSegment(t *testing.T) {
	_, route, truth := synthSamples()
	got := Predict(truth, route, 100)
	want := 1.5*route.Latency + 100/(0.75*route.Bandwidth)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
}

func TestFitPiecewiseNeedsEnoughPoints(t *testing.T) {
	route := RouteInfo{Latency: 1e-5, Bandwidth: 125e6}
	samples := []Sample{
		{1, 1e-5}, {2, 1.1e-5}, {4, 1.2e-5}, {8, 1.3e-5}, {16, 1.4e-5}, {32, 1.5e-5},
	}
	// 6 points cannot form 3 segments of >=3 points: expect an error.
	if _, err := FitPiecewise(samples, route); err == nil {
		t.Error("expected failure with too few points for 3 segments")
	}
}

func TestGoldenMinFindsMinimum(t *testing.T) {
	got := goldenMin(func(x float64) float64 { return (math.Log(x) - math.Log(3)) * (math.Log(x) - math.Log(3)) }, 0.1, 100)
	if math.Abs(got-3) > 0.01 {
		t.Errorf("goldenMin = %v, want 3", got)
	}
}
