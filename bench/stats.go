package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(xs), 0.5)
}

// tailPercentile picks the highest reportable percentile for n samples: the
// largest of 99.9, 99, 95, 90, 75 that still leaves at least ten samples
// beyond it, or 50 when even the 75th does not (the choosing-metrics rule).
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 10
		}
	}
	return 50
}

// tail returns the tailPercentile of xs and which percentile that was.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 50
	}
	pct = tailPercentile(len(xs))
	return quantile(sortedCopy(xs), pct/100), pct
}

// spread returns the interquartile distance of xs as a share of their
// median, with the quartiles of Python's statistics.quantiles(xs, n=4)
// (the exclusive method the driver uses). Fewer than two values have no
// spread.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		lo = min(max(lo, 0), n-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
