// Package calibrate instantiates point-to-point network models from
// ping-pong measurements, implementing the paper's Sections 4.1 and 6:
//
//   - the Default Affine model (1-byte latency + 92% of peak bandwidth),
//     the naive instantiation used by most simulators the paper reviews;
//   - the Best-Fit Affine model, the affine model minimizing the mean
//     logarithmic error against the measurements;
//   - the Piece-Wise Linear model: three linear segments whose boundaries
//     are chosen to maximize the product of the per-segment correlation
//     coefficients, each segment fitted by least-squares linear regression.
//
// Fitted parameters are expressed as factors over the calibration route's
// physical latency and bottleneck bandwidth, so a model calibrated on one
// cluster (griffon) transfers to another (gdx) — the property validated by
// the paper's Figures 4 and 5.
package calibrate

import (
	"fmt"
	"math"
	"sort"

	"smpigo/internal/metrics"
	"smpigo/internal/surf"
)

// Sample is one ping-pong measurement: one-way time for a message size.
type Sample struct {
	Size int64
	Time float64 // seconds
}

// RouteInfo carries the physical parameters of the calibration route.
type RouteInfo struct {
	// Latency is the sum of link latencies between the two nodes (L0).
	Latency float64
	// Bandwidth is the bottleneck link bandwidth in bytes/s (B0).
	Bandwidth float64
}

func validate(samples []Sample, route RouteInfo) error {
	if len(samples) < 6 {
		return fmt.Errorf("calibrate: need at least 6 samples, got %d", len(samples))
	}
	if route.Latency <= 0 || route.Bandwidth <= 0 {
		return fmt.Errorf("calibrate: invalid route info %+v", route)
	}
	for _, s := range samples {
		if s.Time <= 0 || s.Size < 0 {
			return fmt.Errorf("calibrate: invalid sample %+v", s)
		}
	}
	return nil
}

// DefaultAffine instantiates the naive affine model: latency from the
// smallest-size measurement, bandwidth at 92% of the nominal peak.
func DefaultAffine(samples []Sample, route RouteInfo) (surf.NetModel, error) {
	if err := validate(samples, route); err != nil {
		return surf.NetModel{}, err
	}
	smallest := samples[0]
	for _, s := range samples[1:] {
		if s.Size < smallest.Size {
			smallest = s
		}
	}
	latFactor := smallest.Time / route.Latency
	return surf.DefaultAffine(latFactor), nil
}

// BestFitAffine finds the affine model (latency factor, bandwidth factor)
// minimizing the mean logarithmic error against the samples, via coordinate
// descent with golden-section line searches in log-parameter space.
func BestFitAffine(samples []Sample, route RouteInfo) (surf.NetModel, error) {
	if err := validate(samples, route); err != nil {
		return surf.NetModel{}, err
	}
	cost := func(latF, bwF float64) float64 {
		sum := 0.0
		for _, s := range samples {
			pred := float64(latF*route.Latency) + float64(s.Size)/(bwF*route.Bandwidth)
			sum += metrics.LogError(pred, s.Time)
		}
		return sum / float64(len(samples))
	}
	latF, bwF := 1.0, 0.9
	for iter := 0; iter < 30; iter++ {
		latF = goldenMin(func(x float64) float64 { return cost(x, bwF) }, latF/16, latF*16)
		bwF = goldenMin(func(x float64) float64 { return cost(latF, x) }, bwF/16, bwF*16)
	}
	return surf.Affine("best-fit-affine", latF, bwF), nil
}

// goldenMin minimizes f over [lo, hi] (positive bounds) by golden-section
// search in log space.
func goldenMin(f func(float64) float64, lo, hi float64) float64 {
	const phi = 0.6180339887498949
	a, b := math.Log(lo), math.Log(hi)
	c := b - float64(phi*(b-a))
	d := a + float64(phi*(b-a))
	fc, fd := f(math.Exp(c)), f(math.Exp(d))
	for i := 0; i < 60; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - float64(phi*(b-a))
			fc = f(math.Exp(c))
		} else {
			a, c, fc = c, d, fd
			d = a + float64(phi*(b-a))
			fd = f(math.Exp(d))
		}
	}
	return math.Exp((a + b) / 2)
}

// segmentFit is the least-squares fit of one linear piece t = alpha + s/beta.
type segmentFit struct {
	alpha float64 // intercept, seconds
	beta  float64 // bandwidth, bytes/s
	r2    float64 // squared correlation coefficient
}

// fitSegment regresses time against size over samples[i:j] by weighted
// least squares with weights 1/t^2, i.e. minimizing *relative* residuals.
// Plain least squares would let the largest messages dominate the segment
// scoring and miss the protocol-switch kink that only moves times by a few
// hundred microseconds; relative weighting is the natural reading of the
// paper's "correlation coefficients" criterion on log-scaled data.
func fitSegment(samples []Sample, i, j int) (segmentFit, bool) {
	if j-i < 3 {
		return segmentFit{}, false
	}
	var sw, swx, swy, swxx, swxy, swyy float64
	for _, s := range samples[i:j] {
		x, y := float64(s.Size), s.Time
		w := 1 / (y * y)
		sw += w
		swx += float64(w * x)
		swy += float64(w * y)
		swxx += float64(w * x * x)
		swxy += float64(w * x * y)
		swyy += float64(w * y * y)
	}
	den := float64(sw*swxx) - float64(swx*swx)
	if den <= 0 {
		return segmentFit{}, false
	}
	slope := (float64(sw*swxy) - float64(swx*swy)) / den
	intercept := (swy - float64(slope*swx)) / sw
	if slope <= 0 || intercept < 0 {
		return segmentFit{}, false
	}
	varY := float64(sw*swyy) - float64(swy*swy)
	r2 := 1.0
	if varY > 0 {
		r := (float64(sw*swxy) - float64(swx*swy)) / math.Sqrt(den*varY)
		r2 = r * r
	}
	return segmentFit{alpha: intercept, beta: 1 / slope, r2: r2}, true
}

// FitPiecewise fits the paper's 3-segment piece-wise linear model: it
// searches all boundary pairs over the sample sizes, maximizing the product
// of per-segment correlation coefficients, and converts the per-segment
// (latency, bandwidth) pairs into factors over the calibration route.
func FitPiecewise(samples []Sample, route RouteInfo) (surf.NetModel, error) {
	if err := validate(samples, route); err != nil {
		return surf.NetModel{}, err
	}
	sorted := append([]Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Size < sorted[j].Size })

	n := len(sorted)
	best := -1.0
	var bestFits [3]segmentFit
	var bestCut [2]int
	for i := 3; i+3 <= n; i++ { // first boundary: segment 1 = [0,i)
		f1, ok := fitSegment(sorted, 0, i)
		if !ok {
			continue
		}
		for j := i + 3; j <= n-3; j++ { // segment 2 = [i,j), segment 3 = [j,n)
			f2, ok := fitSegment(sorted, i, j)
			if !ok {
				continue
			}
			f3, ok := fitSegment(sorted, j, n)
			if !ok {
				continue
			}
			score := f1.r2 * f2.r2 * f3.r2
			if score > best {
				best = score
				bestFits = [3]segmentFit{f1, f2, f3}
				bestCut = [2]int{i, j}
			}
		}
	}
	if best < 0 {
		return surf.NetModel{}, fmt.Errorf("calibrate: no valid 3-segment split found")
	}

	bounds := [3]int64{
		sorted[bestCut[0]].Size,
		sorted[bestCut[1]].Size,
		math.MaxInt64,
	}
	model := surf.NetModel{Name: "piecewise"}
	for k, f := range bestFits {
		model.Segments = append(model.Segments, surf.Segment{
			MaxBytes:  bounds[k],
			LatFactor: f.alpha / route.Latency,
			BwFactor:  f.beta / route.Bandwidth,
		})
	}
	if err := model.Validate(); err != nil {
		return surf.NetModel{}, fmt.Errorf("calibrate: fitted model invalid: %w", err)
	}
	return model, nil
}

// Predict evaluates a model's one-way transfer time over a route, the same
// formula the surf network applies (useful for error reporting without
// running a simulation).
func Predict(m surf.NetModel, route RouteInfo, size int64) float64 {
	seg := m.Segment(size)
	return float64(seg.LatFactor*route.Latency) + float64(size)/(seg.BwFactor*route.Bandwidth)
}
