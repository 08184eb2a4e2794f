package nas

import (
	"fmt"
	"math"

	"smpigo/internal/smpi"
)

// EP is the NAS Embarrassingly Parallel benchmark: generate pairs of
// uniform deviates, keep those falling inside the unit circle, transform
// them into Gaussian deviates (Marsaglia polar method), tally the deviates
// into ten square annuli, and reduce the tallies. There is no communication
// until the final reductions, so EP isolates the cost of the computational
// part — exactly why the paper uses it to evaluate CPU-burst sampling
// (Section 7.3, Figure 18).
//
// The real class table is M=28/30/32 random-pair exponents for classes
// A/B/C; a simulation test suite cannot burn 2^30 real flops per run, so
// EPConfig takes the exponent directly.

// EPConfig parameterizes an EP run.
type EPConfig struct {
	// M: 2^M total random pairs across all ranks.
	M int
	// Iterations splits each rank's share into this many CPU bursts (the
	// paper's EP iteration space; 4096 in the Figure 18 experiment).
	Iterations int
	// SampleRatio is the fraction of iterations actually executed; the
	// rest replay the mean measured duration (the x-axis of Figure 18).
	// 1.0 executes everything.
	SampleRatio float64
	// Global uses SMPI_SAMPLE_GLOBAL semantics instead of per-rank local
	// sampling.
	Global bool
	// FlopsPerPair is the modelled cost of generating and classifying one
	// random pair, charged per burst whether the burst executes or is
	// bypassed. Defaults to epFlopsPerPair. Because the charged cost is a
	// model rather than a wall-clock measurement, the simulated time of a
	// sampled run is bit-identical to a fully-executed one and to any
	// campaign worker count.
	FlopsPerPair float64
}

// epFlopsPerPair approximates the arithmetic of the EP inner loop: two
// deviates, the acceptance test, and (for accepted pairs) sqrt/log and the
// annulus tally.
const epFlopsPerPair = 40

// EPResult holds the benchmark's verification outputs.
type EPResult struct {
	// Counts are the annulus tallies summed over all ranks.
	Counts [10]int64
	// SumX and SumY are the sums of the Gaussian deviates.
	SumX, SumY float64
	// PairsInCircle counts accepted pairs.
	PairsInCircle int64
}

// EP returns the benchmark application and its result sink.
func EP(cfg EPConfig) (func(*smpi.Rank), *EPResult) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 16
	}
	if cfg.SampleRatio <= 0 || cfg.SampleRatio > 1 {
		cfg.SampleRatio = 1
	}
	if cfg.FlopsPerPair <= 0 {
		cfg.FlopsPerPair = epFlopsPerPair
	}
	res := &EPResult{}
	return func(r *smpi.Rank) {
		c := r.Comm()
		p := r.Size()
		total := int64(1) << uint(cfg.M)
		mine := total / int64(p)
		perIter := mine / int64(cfg.Iterations)
		if perIter == 0 {
			perIter = 1
		}

		var counts [10]int64
		var sx, sy float64
		var accepted int64
		rng := r.RNG()

		n := int(math.Round(cfg.SampleRatio * float64(cfg.Iterations)))
		for iter := 0; iter < cfg.Iterations; iter++ {
			body := func() {
				for i := int64(0); i < perIter; i++ {
					x := 2*rng.Float64() - 1
					y := 2*rng.Float64() - 1
					t := float64(x*x) + float64(y*y)
					if t > 1 || t == 0 {
						continue
					}
					accepted++
					f := math.Sqrt(-2 * math.Log(t) / t)
					gx, gy := float64(x*f), float64(y*f)
					sx += gx
					sy += gy
					l := int(math.Max(math.Abs(gx), math.Abs(gy)))
					if l > 9 {
						l = 9
					}
					counts[l]++
				}
			}
			id := fmt.Sprintf("ep-iter-m%d", cfg.M)
			flops := float64(perIter) * cfg.FlopsPerPair
			if cfg.Global {
				r.SampleGlobalFlops(id, n, flops, body)
			} else {
				r.SampleLocalFlops(id, n, flops, body)
			}
		}

		// Final reductions, as in the real benchmark.
		sums := smpi.Float64sToBytes([]float64{sx, sy})
		sumOut := make([]byte, 16)
		c.Allreduce(r, sums, sumOut, smpi.Float64, smpi.OpSum)
		cnt := make([]int64, 11)
		copy(cnt, counts[:])
		cnt[10] = accepted
		cntOut := make([]byte, 8*11)
		c.Allreduce(r, smpi.Int64sToBytes(cnt), cntOut, smpi.Int64, smpi.OpSum)

		if r.Rank() == 0 {
			got := smpi.BytesToFloat64s(sumOut)
			res.SumX, res.SumY = got[0], got[1]
			totals := smpi.BytesToInt64s(cntOut)
			copy(res.Counts[:], totals[:10])
			res.PairsInCircle = totals[10]
		}
	}, res
}
