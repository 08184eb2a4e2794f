package topology_test

// Scale tests: the deterministic half of the Router API redesign's
// acceptance criterion — a 65536-host dragonfly must build and route in
// O(hosts) total memory. The former per-ordered-pair route memo made 64k
// hosts unreachable (4.3 billion map entries just for the keys); the
// implicit routers store O(1) state, so platform memory is the host and
// link slabs, and a route lookup into a reused buffer allocates nothing.
// How long a lookup or a build takes is bench/'s business
// (probe.platform.route_ns, probe.topology.build_ms).

import (
	"math/rand"
	"runtime"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
	"smpigo/internal/simix"
	"smpigo/internal/surf"
	"smpigo/internal/topology"
)

const (
	// 32 groups x 16 routers x 32 hosts = 16384 hosts, 41440 links.
	shape16k = "dragonfly:32x16x32"
	// 64 groups x 32 routers x 32 hosts = 65536 hosts, 198592 links.
	shape65k = "dragonfly:64x32x32"
)

// buildMeasured builds the shape and returns it with the live heap bytes it
// retains per host (GC'd before and after, so transient build garbage does
// not count).
func buildMeasured(t *testing.T, shape string) (*platform.Platform, float64) {
	t.Helper()
	spec, err := topology.ParseSpec(shape)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plat, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perHost := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(plat.Hosts()))
	return plat, perHost
}

// TestScale16kDragonflyRouting pins what the 16384-host dragonfly retains
// and that resolving a route on it is allocation-free: RouteInto over a
// fixed sample of uniform pairs (dominated by the longest case — local hop,
// global hop, local hop) with a reused buffer.
func TestScale16kDragonflyRouting(t *testing.T) {
	plat, perHost := buildMeasured(t, shape16k)
	const budget = 218 // bytes/host: 1.35x the 162 measured (hosts and links only)
	if perHost > budget {
		t.Errorf("platform retains %.0f bytes/host, budget %d", perHost, budget)
	}
	hosts := plat.Hosts()
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]*platform.Host, 4096)
	for i := range pairs {
		a := rng.Intn(len(hosts))
		c := rng.Intn(len(hosts) - 1)
		if c >= a {
			c++
		}
		pairs[i] = [2]*platform.Host{hosts[a], hosts[c]}
	}
	buf := make([]*platform.Link, 0, 16)
	i := 0
	allocs := testing.AllocsPerRun(len(pairs), func() {
		p := pairs[i%len(pairs)]
		i++
		if r := plat.RouteInto(buf[:0], p[0], p[1]); len(r.Links) == 0 {
			t.Fatalf("empty route %s -> %s", p[0].Name(), p[1].Name())
		}
	})
	if allocs != 0 {
		t.Errorf("RouteInto allocates %v times per lookup, want 0", allocs)
	}
}

// TestScale65kDragonflyMemory is the acceptance test of the redesign: the
// 65536-host dragonfly builds within a linear memory budget (the old memo
// map would blow past it after a fraction of the pairs) and runs a
// full neighbor-traffic wave — one flow per host, every route resolved
// implicitly — to completion.
func TestScale65kDragonflyMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-host build: skipped in -short runs (covered nightly)")
	}
	plat, perHost := buildMeasured(t, shape65k)
	hosts := plat.Hosts()
	if len(hosts) != 65536 {
		t.Fatalf("hosts = %d, want 65536", len(hosts))
	}
	const budget = 250 // bytes/host: 1.35x the 185.5 measured; the old memo map needed O(hosts) each
	if perHost > budget {
		t.Fatalf("platform retains %.0f bytes/host, budget %d — routing state is growing superlinearly", perHost, budget)
	}
	t.Logf("65536-host dragonfly: %.0f bytes/host retained", perHost)

	// One neighbor-traffic wave: every host streams 64KiB to its successor
	// under the same router (wrapping within the router), all 65536 flows
	// in flight at once.
	const hostsPerRouter = 32
	k := simix.New()
	n := surf.NewNetwork(k, surf.Ideal())
	k.AddModel(n)
	done := 0
	k.Spawn("wave", func(p *simix.Proc) {
		futures := make([]*simix.Future, 0, len(hosts))
		for i, h := range hosts {
			router := i / hostsPerRouter
			dst := hosts[router*hostsPerRouter+(i+1)%hostsPerRouter]
			f := simix.NewFuture()
			n.StartFlow(plat.Route(h, dst), 64*core.KiB, f)
			futures = append(futures, f)
		}
		for _, f := range futures {
			p.Wait(f)
			done++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != len(hosts) {
		t.Fatalf("completed %d flows, want %d", done, len(hosts))
	}
}
