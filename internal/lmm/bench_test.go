package lmm_test

// Solver benchmarks at the 1k-host scale PR 2's topology generators made
// constructible: a 1024-host three-level fat-tree (fattree:16x8x8:1x8x8)
// carrying a steady population of flows, churned one completion + one start
// at a time — exactly the event pattern surf.Network feeds the solver
// during a simulation. The "full" baseline re-solves everything after each
// event (the pre-incremental behaviour); "incremental" re-solves only the
// components the churned flow touched. BENCH_lmm.json records the measured
// before/after.
//
// Two traffic shapes bracket the payoff:
//
//   - neighbor: every host streams to its ring successor (the steady state
//     of the ring collectives), which D-mod-k keeps mostly under the leaf
//     switches — components are tiny and selective re-solve is ~free;
//   - random: uniformly random host pairs; the shared spine links couple
//     most flows into a few large components, the adversarial case where
//     the dirty set buys the least.

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/topology"
)

type fatTreeBench struct {
	plat  *platform.Platform
	hosts []*platform.Host
	sys   *lmm.System
	cons  map[*platform.Link]*lmm.Constraint
	flows []*lmm.Variable
	pairs [][2]int
	rng   *rand.Rand
}

func newFatTreeBench(b *testing.B, shape string) *fatTreeBench {
	b.Helper()
	spec, err := topology.ParseSpec(shape)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	return &fatTreeBench{
		plat:  plat,
		hosts: plat.Hosts(),
		sys:   lmm.New(),
		cons:  make(map[*platform.Link]*lmm.Constraint),
		rng:   rand.New(rand.NewSource(7)),
	}
}

func (ft *fatTreeBench) addFlow(src, dst int) {
	route := ft.plat.Route(ft.hosts[src], ft.hosts[dst])
	v := ft.sys.NewVariable("flow", 1, math.Inf(1))
	for _, l := range route.Links {
		c, ok := ft.cons[l]
		if !ok {
			c = ft.sys.NewConstraint(l.Name(), l.Bandwidth, l.Policy)
			ft.cons[l] = c
		}
		ft.sys.Attach(v, c)
	}
	ft.flows = append(ft.flows, v)
	ft.pairs = append(ft.pairs, [2]int{src, dst})
}

func (ft *fatTreeBench) randomPair() (int, int) {
	src := ft.rng.Intn(len(ft.hosts))
	dst := ft.rng.Intn(len(ft.hosts) - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// churn replays one simulation event: a randomly chosen flow completes and
// a successor starts (same pair for neighbor traffic — the next ring step —
// or a fresh random pair).
func (ft *fatTreeBench) churn(random bool) {
	i := ft.rng.Intn(len(ft.flows))
	ft.sys.RemoveVariable(ft.flows[i])
	src, dst := ft.pairs[i][0], ft.pairs[i][1]
	last := len(ft.flows) - 1
	ft.flows[i], ft.pairs[i] = ft.flows[last], ft.pairs[last]
	ft.flows, ft.pairs = ft.flows[:last], ft.pairs[:last]
	if random {
		src, dst = ft.randomPair()
	}
	ft.addFlow(src, dst)
}

// BenchmarkLMMIncremental measures the per-event solver cost on the 1k-host
// fat-tree: one flow completion plus one flow start, then a re-solve. The
// incremental/full ratio is the payoff of dirty-set selective solving.
func BenchmarkLMMIncremental(b *testing.B) {
	const shape = "fattree:16x8x8:1x8x8" // 1024 hosts
	patterns := []struct {
		name   string
		random bool
		flows  int
	}{
		{"neighbor1024", false, 1024},
		{"random512", true, 512},
	}
	for _, pat := range patterns {
		setup := func(b *testing.B) *fatTreeBench {
			ft := newFatTreeBench(b, shape)
			for i := 0; i < pat.flows; i++ {
				if pat.random {
					src, dst := ft.randomPair()
					ft.addFlow(src, dst)
				} else {
					ft.addFlow(i, (i+1)%len(ft.hosts))
				}
			}
			ft.sys.SolveFull()
			return ft
		}
		b.Run(pat.name+"/incremental", func(b *testing.B) {
			ft := setup(b)
			// benchgate -counters mode: attach solver counters and report
			// per-churn work; the default run stays uninstrumented (the
			// zero-overhead contract the gate baselines pin).
			var stats lmm.Stats
			if os.Getenv("SMPIGO_BENCH_COUNTERS") != "" {
				ft.sys.Stats = &stats
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.churn(pat.random)
				ft.sys.Solve()
			}
			if ft.sys.Stats != nil && b.N > 0 {
				per := 1 / float64(b.N)
				b.ReportMetric(float64(stats.Components)*per, "components/op")
				b.ReportMetric(float64(stats.DirtyConstraints)*per, "dirtycons/op")
				b.ReportMetric(float64(stats.VarsResolved)*per, "resolved/op")
			}
		})
		b.Run(pat.name+"/full", func(b *testing.B) {
			ft := setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.churn(pat.random)
				ft.sys.SolveFull()
			}
		})
	}
}
