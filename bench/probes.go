package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/lmm"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
	"smpigo/internal/sampling"
	"smpigo/internal/service"
	"smpigo/internal/simix"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

// A probe times public calls of one layer at a shape the workloads induce
// and returns named values. Probes are the per-layer numbers that do not
// depend on the workload; each repeats its kernel and reports the median.
type probe struct {
	name string
	run  func(scale int) (map[string]float64, error)
}

const probeRepeats = 5

var probes = []probe{
	{"simix", probeSimix},
	{"surf", probeSurf},
	{"lmm", probeLMM},
	{"platform", probePlatform},
	{"smpi", probeSMPI},
	{"sampling", probeSampling},
	{"emu", probeEmu},
	{"campaign", probeCampaign},
	{"experiments", probeExperiments},
	{"service", probeService},
}

// runProbes runs every probe. scale divides the repeat counts (1 = full,
// larger for the quick smoke run).
func runProbes(scale int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		vals, err := p.run(scale)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}

// medianOf runs fn probeRepeats times and returns the median of its results.
func medianOf(fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, probeRepeats)
	for i := 0; i < probeRepeats; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func nsPer(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }

const fatTree1024 = "fattree:16x8x8:1x8x8"

func buildFatTree() (*platform.Platform, error) {
	spec, err := topology.ParseSpec(fatTree1024)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// probeSimix: 256 actors each yielding 200 times on a bare kernel — the
// cost of one actor hand-off with no model and no MPI layer above it.
func probeSimix(scale int) (map[string]float64, error) {
	const actors = 256
	yields := max(200/scale, 2)
	ns, err := medianOf(func() (float64, error) {
		k := simix.New()
		for a := 0; a < actors; a++ {
			k.Spawn("a", func(p *simix.Proc) {
				for i := 0; i < yields; i++ {
					p.Yield()
				}
			})
		}
		t0 := time.Now()
		if err := k.Run(); err != nil {
			return 0, err
		}
		return nsPer(t0, actors*yields), nil
	})
	return map[string]float64{"probe.simix.handoff_ns": ns}, err
}

// timedModel wraps a simix.Model and accumulates the host time spent inside
// it, so the probe can say what share of a flow's cost is the model's.
type timedModel struct {
	inner simix.Model
	spent time.Duration
}

func (m *timedModel) NextEvent() core.Time {
	t0 := time.Now()
	defer func() { m.spent += time.Since(t0) }()
	return m.inner.NextEvent()
}

func (m *timedModel) Advance(to core.Time) {
	t0 := time.Now()
	defer func() { m.spent += time.Since(t0) }()
	m.inner.Advance(to)
}

// probeSurf: 256 actors each starting a 1 KiB flow to a shifting peer on the
// 1024-host fat-tree and waiting for it, with no smpi above.
func probeSurf(scale int) (map[string]float64, error) {
	plat, err := buildFatTree()
	if err != nil {
		return nil, err
	}
	hosts := plat.Hosts()
	const actors = 256
	stride := len(hosts) / actors // spread the actors over the whole tree, as smpi lays ranks out
	rounds := max(16/scale, 1)
	var share float64
	ns, err := medianOf(func() (float64, error) {
		k := simix.New()
		net := surf.NewNetwork(k, surf.Ideal())
		net.Contention = true
		tm := &timedModel{inner: net}
		k.AddModel(tm)
		for a := 0; a < actors; a++ {
			k.Spawn("a", func(p *simix.Proc) {
				for r := 1; r <= rounds; r++ {
					f := simix.NewFuture()
					net.StartFlow(plat.Route(hosts[a*stride], hosts[(a+r*37)%actors*stride]), 1024, f)
					p.Wait(f)
				}
			})
		}
		t0 := time.Now()
		if err := k.Run(); err != nil {
			return 0, err
		}
		share = float64(tm.spent) / float64(time.Since(t0))
		return nsPer(t0, actors*rounds), nil
	})
	return map[string]float64{"probe.surf.flow_ns": ns, "probe.surf.model_share": share}, err
}

// probeLMM: churn events (one flow leaves, one arrives, Solve) on systems of
// 32-variable components, the fat-tree alltoall's shape, and on one
// 257-variable / 138-constraint component, DT shuffle's.
func probeLMM(scale int) (map[string]float64, error) {
	events := max(2000/scale, 10)
	churn := func(comps, vars, cons int) (float64, error) {
		return medianOf(func() (float64, error) {
			sys := lmm.New()
			rng := core.NewRNG(7)
			type comp struct {
				cons []*lmm.Constraint
				vars []*lmm.Variable
			}
			attach := func(c *comp) *lmm.Variable {
				v := sys.NewVariable("", 1, math.Inf(1))
				// Two constraints per variable, the first in ring order so
				// the component stays connected whatever the draw.
				i := len(c.vars) % len(c.cons)
				sys.Attach(v, c.cons[i])
				if j := rng.Intn(len(c.cons)); j != i {
					sys.Attach(v, c.cons[j])
				}
				return v
			}
			cs := make([]*comp, comps)
			for i := range cs {
				c := &comp{}
				for j := 0; j < cons; j++ {
					c.cons = append(c.cons, sys.NewConstraint("", 1e9, lmm.Shared))
				}
				for j := 0; j < vars; j++ {
					c.vars = append(c.vars, attach(c))
				}
				cs[i] = c
			}
			sys.Solve()
			t0 := time.Now()
			for e := 0; e < events; e++ {
				c := cs[e%comps]
				k := rng.Intn(len(c.vars))
				sys.RemoveVariable(c.vars[k])
				c.vars[k] = c.vars[len(c.vars)-1]
				c.vars = c.vars[:len(c.vars)-1]
				c.vars = append(c.vars, attach(c))
				sys.Solve()
			}
			return nsPer(t0, events), nil
		})
	}
	small, err := churn(8, 32, 16)
	if err != nil {
		return nil, err
	}
	giant, err := churn(1, 257, 138)
	return map[string]float64{"probe.lmm.solve_ns.small": small, "probe.lmm.solve_ns.giant": giant}, err
}

// probePlatform: building the 1024-host fat-tree, and RouteInto between
// random host pairs with a reused buffer.
func probePlatform(scale int) (map[string]float64, error) {
	var plat *platform.Platform
	buildMS, err := medianOf(func() (float64, error) {
		t0 := time.Now()
		p, err := buildFatTree()
		plat = p
		return msSince(t0), err
	})
	if err != nil {
		return nil, err
	}
	hosts := plat.Hosts()
	lookups := max(200000/scale, 100)
	routeNS, err := medianOf(func() (float64, error) {
		rng := core.NewRNG(11)
		var buf []*platform.Link
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			buf = plat.RouteInto(buf[:0], hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]).Links
		}
		return nsPer(t0, lookups), nil
	})
	return map[string]float64{"probe.topology.build_ms": buildMS, "probe.platform.route_ns": routeNS}, err
}

// probeSMPI: rank 0 sends messages to rank 1 on griffon, 1 KiB (eager) and
// 128 KiB (rendezvous): host time per message through matching and copies.
func probeSMPI(scale int) (map[string]float64, error) {
	plat, err := platform.Griffon().Build()
	if err != nil {
		return nil, err
	}
	p2p := func(size, msgs int) (float64, error) {
		return medianOf(func() (float64, error) {
			buf := [2][]byte{make([]byte, size), make([]byte, size)}
			t0 := time.Now()
			_, err := smpi.Run(smpi.Config{Procs: 2, Platform: plat}, func(r *smpi.Rank) {
				c := r.Comm()
				for i := 0; i < msgs; i++ {
					if r.Rank() == 0 {
						r.Send(c, buf[0], 1, 1)
					} else {
						r.Recv(c, buf[1], 0, 1)
					}
				}
			})
			return nsPer(t0, msgs), err
		})
	}
	eager, err := p2p(1*int(core.KiB), max(4000/scale, 10))
	if err != nil {
		return nil, err
	}
	rdv, err := p2p(128*int(core.KiB), max(2000/scale, 10))
	return map[string]float64{"probe.smpi.p2p_ns.eager": eager, "probe.smpi.p2p_ns.rendezvous": rdv}, err
}

// probeSampling: the accounting allocator at 448 ranks with one folded
// array live, as in DT shuffle.
func probeSampling(scale int) (map[string]float64, error) {
	const ranks = 448
	calls := max(200000/scale, 100)
	ns, err := medianOf(func() (float64, error) {
		reg := sampling.NewRegistry(ranks)
		reg.SharedMalloc("folded", 256*int(core.KiB))
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = reg.Malloc(i%ranks, 64)
			reg.Free(i%ranks, 64)
		}
		return nsPer(t0, calls), nil
	})
	return map[string]float64{"probe.sampling.malloc_ns": ns}, err
}

// probeEmu: a 2-rank 256 KiB ping-pong on the packet emulator; host time
// per packet-hop event.
func probeEmu(scale int) (map[string]float64, error) {
	plat, err := platform.Griffon().Build()
	if err != nil {
		return nil, err
	}
	trips := max(40/scale, 1)
	ns, err := medianOf(func() (float64, error) {
		buf := [2][]byte{make([]byte, 256*core.KiB), make([]byte, 256*core.KiB)}
		st := new(obs.Stats)
		t0 := time.Now()
		_, err := smpi.Run(smpi.Config{Procs: 2, Platform: plat, Backend: smpi.BackendEmu, Stats: st}, func(r *smpi.Rank) {
			c := r.Comm()
			for i := 0; i < trips; i++ {
				if r.Rank() == 0 {
					r.Send(c, buf[0], 1, 1)
					r.Recv(c, buf[0], 1, 1)
				} else {
					r.Recv(c, buf[1], 0, 1)
					r.Send(c, buf[1], 0, 1)
				}
			}
		})
		if err != nil {
			return 0, err
		}
		hops := st.Flat()["heap.net.pushes"]
		if hops == 0 {
			return 0, fmt.Errorf("emulator reported no hop events")
		}
		return float64(time.Since(t0).Nanoseconds()) / hops, nil
	})
	return map[string]float64{"probe.emu.hop_ns": ns}, err
}

// probeCampaign: dispatching no-op jobs over 2 workers.
func probeCampaign(scale int) (map[string]float64, error) {
	n := max(10000/scale, 10)
	jobs := make([]campaign.Job, n)
	for i := range jobs {
		jobs[i] = campaign.Job{ID: fmt.Sprint("noop/", i), Run: func(*campaign.Ctx) (*campaign.Outcome, error) {
			return &campaign.Outcome{}, nil
		}}
	}
	us, err := medianOf(func() (float64, error) {
		t0 := time.Now()
		sum := campaign.Run(campaign.Options{Workers: 2, Seed: 1}, jobs)
		return nsPer(t0, n) / 1e3, sum.Err()
	})
	return map[string]float64{"probe.campaign.dispatch_us": us}, err
}

// probeSpec is the service_mix scenario in its respelled form.
var probeSpec = experiments.GridSpec{
	Op: "Scatter", Procs: []int{svcRanks, svcRanks}, Sizes: []int64{svcMsgBytes, svcMsgBytes},
	Models: []string{"PIECEWISE"}, Backends: []string{"SURF", "surf"}, Platform: "Griffon",
}

// probeExperiments: canonicalising a request's spec and deriving its cache
// key, what every service request pays before the cache is consulted.
func probeExperiments(scale int) (map[string]float64, error) {
	n := max(2000/scale, 10)
	us, err := medianOf(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c, err := probeSpec.Canonicalize()
			if err != nil {
				return 0, err
			}
			if _, err := c.CampaignKey(uint64(i)); err != nil {
				return 0, err
			}
		}
		return nsPer(t0, n) / 1e3, nil
	})
	return map[string]float64{"probe.experiments.key_us": us}, err
}

// probeService: one cached campaign asked for again and again — the whole
// serving path of a hit.
func probeService(scale int) (map[string]float64, error) {
	srv, err := service.New(service.Config{CacheSize: svcCacheSize, Workers: 2})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	gen := newMixGenerator(1)
	body := gen.body(request{key: 0, class: classHit}, false)
	post := func() error {
		rec := postCampaign(handler, body)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.String())
		}
		return nil
	}
	// The first answer releases before the cache write; ask until it hits.
	for i := 0; i < 3; i++ {
		if err := post(); err != nil {
			return nil, err
		}
	}
	n := max(2000/scale, 10)
	us, err := medianOf(func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := post(); err != nil {
				return 0, err
			}
		}
		return nsPer(t0, n) / 1e3, nil
	})
	return map[string]float64{"probe.service.hit_us": us}, err
}

// ---- machine reference kernels ---------------------------------------------

// machineRefs times three fixed kernels that touch no program code: integer
// arithmetic, a large copy, and goroutine hand-off over an unbuffered
// channel; each is the fastest of three repetitions. Run before and after a
// measurement, their drift says whether the machine changed under it.
func machineRefs() map[string]float64 {
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	copy(dst, src) // fault the pages in
	kernels := map[string]func(){
		"machine.ref_cpu_ms": func() {
			x := uint64(88172645463325252)
			for i := 0; i < 20_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			refSink = x
		},
		"machine.ref_mem_ms": func() {
			for i := 0; i < 8; i++ {
				copy(dst, src)
			}
		},
		"machine.ref_handoff_ms": func() {
			ping, pong := make(chan struct{}), make(chan struct{})
			go func() {
				for range ping {
					pong <- struct{}{}
				}
				close(pong)
			}()
			for i := 0; i < 50_000; i++ {
				ping <- struct{}{}
				<-pong
			}
			close(ping)
			<-pong
		},
	}
	refs := make(map[string]float64, len(kernels))
	for name, kernel := range kernels {
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			kernel()
			best = min(best, msSince(t0))
		}
		refs[name] = best
	}
	return refs
}

var refSink uint64 // keeps the arithmetic kernel's result alive

// refDrift returns the largest relative change between two machineRefs
// readings.
func refDrift(before, after map[string]float64) float64 {
	var worst float64
	for k, b := range before {
		if b > 0 {
			d := (after[k] - b) / b
			if d < 0 {
				d = -d
			}
			worst = max(worst, d)
		}
	}
	return worst
}
