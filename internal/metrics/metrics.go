// Package metrics implements the accuracy metrics of the paper's Section
// 7.1: the logarithmic error of Velho & Legrand, which unlike the relative
// error is symmetric under over- and under-estimation, aggregates with
// ordinary mean/max, and converts back to a familiar percentage with
// exp(err)-1.
//
// A bad input is a caller bug and panics with a message naming the value
// (and, in a series, its index). Validity checks are written as !(x > 0)
// rather than x <= 0 so that NaN — for which every comparison is false — is
// rejected instead of flowing silently through math.Log and poisoning the
// aggregate.
package metrics

import (
	"fmt"
	"math"
)

// LogError returns |ln(x) - ln(ref)|. Both values must be positive and
// non-NaN; anything else panics.
func LogError(x, ref float64) float64 {
	e, err := logError(x, ref)
	if err != nil {
		panic(err.Error())
	}
	return e
}

func logError(x, ref float64) (float64, error) {
	if !(x > 0) {
		return 0, fmt.Errorf("metrics: log error needs a positive prediction, got %v (reference %v)", x, ref)
	}
	if !(ref > 0) {
		return 0, fmt.Errorf("metrics: log error needs a positive reference, got %v (prediction %v)", ref, x)
	}
	return math.Abs(math.Log(x) - math.Log(ref)), nil
}

// ToPercent converts a logarithmic error to the percentage the paper
// reports: e^err - 1, as a percentage value (8.63 means 8.63%).
func ToPercent(logErr float64) float64 {
	return (math.Exp(logErr) - 1) * 100
}

// Summary aggregates logarithmic errors over a series of predictions.
type Summary struct {
	// MeanLog and MaxLog are the average and worst logarithmic errors.
	MeanLog float64
	MaxLog  float64
	// N is the number of points aggregated.
	N int
}

// MeanPct returns the mean error as a percentage (the paper's "average
// error overall").
func (s Summary) MeanPct() float64 { return ToPercent(s.MeanLog) }

// worstPct returns the maximum error as a percentage (the paper's "worst
// case").
func (s Summary) worstPct() float64 { return ToPercent(s.MaxLog) }

// String formats the summary the way the paper quotes errors.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f%% avg (worst %.2f%%, n=%d)", s.MeanPct(), s.worstPct(), s.N)
}

// Summarize computes the error summary of predictions against references.
// The slices must have equal nonzero length and every point must be
// positive and non-NaN; anything else panics, naming the offending index.
func Summarize(pred, ref []float64) Summary {
	if len(pred) != len(ref) {
		panic(fmt.Sprintf("metrics: summarize on mismatched series: %d predictions vs %d references", len(pred), len(ref)))
	}
	if len(pred) == 0 {
		panic("metrics: summarize on empty series")
	}
	var s Summary
	for i := range pred {
		e, err := logError(pred[i], ref[i])
		if err != nil {
			panic(fmt.Sprintf("%v (point %d of %d)", err, i, len(pred)))
		}
		s.MeanLog += e
		if e > s.MaxLog {
			s.MaxLog = e
		}
	}
	s.MeanLog /= float64(len(pred))
	s.N = len(pred)
	return s
}
