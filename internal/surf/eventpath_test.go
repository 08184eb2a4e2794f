package surf_test

// Event-path equivalence tests: the heap-based Network against a reference
// reimplementation of the pre-heap linear scan (every-step drain, full-scan
// NextEvent), run on identical fuzzed churn schedules.
//
// When every kernel step reshares every live flow's component (single
// shared-link platforms — and the alltoall campaign
// TestEventPathFingerprintUnchanged pins), the lazy drain performs bit-for-bit the same arithmetic as the
// every-step drain, so completion times must be exactly equal. When steps
// interleave across components or with timers, the lazy drain partitions
// the same rate integral into fewer segments, so times agree only to
// floating-point reassociation (ulp-level) precision — that bound is
// asserted too, on a multi-component fat-tree schedule with sleeps.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/platform/platformtest"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

// --- reference model: the pre-heap linear scan, kept as a test oracle ---

type scanFlow struct {
	route     platform.Route
	bound     float64
	future    *simix.Future
	latEnd    core.Time
	started   bool
	remaining float64
	v         *lmm.Variable
	rate      float64
}

type scanNet struct {
	kernel *simix.Kernel
	model  surf.NetModel
	now    core.Time
	sys    *lmm.System
	cons   map[*platform.Link]*lmm.Constraint
	flows  []*scanFlow
}

func newScanNet(kernel *simix.Kernel, model surf.NetModel) *scanNet {
	return &scanNet{
		kernel: kernel,
		model:  model,
		sys:    lmm.New(),
		cons:   make(map[*platform.Link]*lmm.Constraint),
	}
}

func (n *scanNet) StartFlow(route platform.Route, size int64, future *simix.Future) {
	n.now = n.kernel.Now()
	seg := n.model.Segment(size)
	n.flows = append(n.flows, &scanFlow{
		route:     route,
		bound:     seg.BwFactor * route.Bottleneck(),
		future:    future,
		latEnd:    n.now + core.Duration(seg.LatFactor)*route.Latency,
		remaining: float64(size),
	})
}

func (n *scanNet) constraint(l *platform.Link) *lmm.Constraint {
	c, ok := n.cons[l]
	if !ok {
		c = n.sys.NewConstraint(l.Name(), l.Bandwidth, l.Policy)
		n.cons[l] = c
	}
	return c
}

func (n *scanNet) reshare() {
	n.sys.Solve()
	for _, v := range n.sys.Resolved() {
		f := v.Data.(*scanFlow)
		f.rate = v.Value
	}
}

func (n *scanNet) NextEvent() core.Time {
	next := core.TimeForever
	for _, f := range n.flows {
		if !f.started {
			if f.latEnd < next {
				next = f.latEnd
			}
		} else if f.rate > 0 {
			if t := n.now + core.Duration(f.remaining/f.rate); t < next {
				next = t
			}
		}
	}
	return next
}

func (n *scanNet) Advance(to core.Time) {
	dt := float64(to - n.now)
	if dt < 0 {
		return
	}
	n.now = to
	changed := false
	for _, f := range n.flows {
		if f.started {
			f.remaining -= f.rate * dt
		}
	}
	for _, f := range n.flows {
		if !f.started && f.latEnd <= to+1e-15 {
			f.started = true
			if f.remaining <= 0 {
				continue
			}
			f.v = n.sys.NewVariable("flow", 1, f.bound)
			f.v.Data = f
			for _, l := range f.route.Links {
				n.sys.Attach(f.v, n.constraint(l))
			}
			changed = true
		}
	}
	live := n.flows[:0]
	for _, f := range n.flows {
		if f.started && f.remaining <= 1e-6 {
			if f.v != nil {
				n.sys.RemoveVariable(f.v)
			}
			n.kernel.Fulfill(f.future)
			changed = true
			continue
		}
		live = append(live, f)
	}
	n.flows = live
	if changed {
		n.reshare()
	}
}

// flowStarter abstracts the two implementations behind one driver.
type flowStarter interface {
	simix.Model
	StartFlow(route platform.Route, size int64, future *simix.Future)
}

// churnSchedule drives an identical fuzzed workload against a starter:
// actors chains of flows with seeded-random sizes and endpoints, optional
// sleeps between them. It returns every flow's completion time, indexed by
// (actor, step).
func churnSchedule(t *testing.T, plat *platform.Platform, mk func(*simix.Kernel) flowStarter,
	actors, steps int, pairs func(rng *rand.Rand) (int, int), sleeps bool) [][]core.Time {
	t.Helper()
	hosts := plat.Hosts()
	k := simix.New()
	net := mk(k)
	k.AddModel(net)
	times := make([][]core.Time, actors)
	for a := 0; a < actors; a++ {
		rng := rand.New(rand.NewSource(int64(1000 + a)))
		times[a] = make([]core.Time, steps)
		rec := times[a]
		k.Spawn(fmt.Sprintf("actor-%d", a), func(p *simix.Proc) {
			for s := 0; s < steps; s++ {
				src, dst := pairs(rng)
				size := rng.Int63n(1 << 20)
				if size == 0 {
					size = 1
				}
				f := simix.NewFuture()
				net.StartFlow(plat.Route(hosts[src], hosts[dst]), size, f)
				p.Wait(f)
				rec[s] = p.Now()
				if sleeps && rng.Intn(4) == 0 {
					f := simix.NewFuture()
					k.FulfillAt(f, p.Now()+core.Duration(rng.Float64())*core.Microsecond)
					p.Wait(f)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return times
}

// TestHeapMatchesScanExactSingleComponent: on a dumbbell platform every
// flow crosses the same shared links, so every churn event reshares every
// live flow; the lazy drain then syncs at exactly the dates the reference
// drains at, and completion times must be bit-identical.
func TestHeapMatchesScanExactSingleComponent(t *testing.T) {
	f := platformtest.New("dumbbell")
	p := f.Platform
	a, b := p.NewHost(1e9), p.NewHost(1e9)
	f.Route(a, b, f.Link("up", 125e6, 10*core.Microsecond, lmm.Shared), f.Link("down", 125e6, 10*core.Microsecond, lmm.Shared))

	pairs := func(*rand.Rand) (int, int) { return 0, 1 }
	const actors, steps = 8, 40
	heap := churnSchedule(t, p, func(k *simix.Kernel) flowStarter {
		return surf.NewNetwork(k, surf.Ideal())
	}, actors, steps, pairs, false)
	scan := churnSchedule(t, p, func(k *simix.Kernel) flowStarter {
		return newScanNet(k, surf.Ideal())
	}, actors, steps, pairs, false)

	for a := range heap {
		for s := range heap[a] {
			if heap[a][s] != scan[a][s] {
				t.Fatalf("actor %d flow %d: heap completion %.17g, scan %.17g (want bit-identical)",
					a, s, float64(heap[a][s]), float64(scan[a][s]))
			}
		}
	}
}

// TestHeapMatchesScanUlpMultiComponent: random pairs on a fat-tree with
// sleeps interleave kernel steps across disjoint LMM components and timers.
// There the lazy drain legitimately reassociates the drain arithmetic, so
// completion times are mathematically equal but may differ at ulp level;
// assert the tight relative bound.
func TestHeapMatchesScanUlpMultiComponent(t *testing.T) {
	spec, err := topology.ParseSpec("fattree16")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	nhosts := len(plat.Hosts())
	pairs := func(rng *rand.Rand) (int, int) {
		src := rng.Intn(nhosts)
		dst := rng.Intn(nhosts - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}
	const actors, steps = 12, 30
	heap := churnSchedule(t, plat, func(k *simix.Kernel) flowStarter {
		return surf.NewNetwork(k, surf.Ideal())
	}, actors, steps, pairs, true)
	scan := churnSchedule(t, plat, func(k *simix.Kernel) flowStarter {
		return newScanNet(k, surf.Ideal())
	}, actors, steps, pairs, true)

	for a := range heap {
		for s := range heap[a] {
			h, sc := float64(heap[a][s]), float64(scan[a][s])
			if diff := math.Abs(h - sc); diff > 1e-12*math.Max(1, math.Abs(sc)) {
				t.Fatalf("actor %d flow %d: heap completion %.17g vs scan %.17g (|diff| %g beyond ulp bound)",
					a, s, h, sc, diff)
			}
		}
	}
}
