package topology

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
)

// routeNames renders a route as its link-name sequence, the canonical form
// the determinism tests compare.
func routeNames(p *platform.Platform, a, b *platform.Host) []string {
	r := p.Route(a, b)
	names := make([]string, len(r.Links))
	for i, l := range r.Links {
		names[i] = l.Name()
	}
	return names
}

// maxHops scans all host pairs and returns the longest route in links.
func maxHops(t *testing.T, p *platform.Platform) int {
	t.Helper()
	max := 0
	for _, a := range p.Hosts() {
		for _, b := range p.Hosts() {
			if a == b {
				continue
			}
			r := p.Route(a, b)
			if len(r.Links) == 0 || r.Latency <= 0 {
				t.Fatalf("degenerate route %s -> %s: %d links, latency %v",
					a.Name(), b.Name(), len(r.Links), r.Latency)
			}
			if len(r.Links) > max {
				max = len(r.Links)
			}
		}
	}
	return max
}

// checkDeterministic builds the spec twice and compares a sample of routes
// link by link: same spec, same routes, independent of build instance.
func checkDeterministic(t *testing.T, spec Spec) {
	t.Helper()
	p1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p1.Hosts())
	for _, pair := range [][2]int{{0, 1}, {0, n - 1}, {n / 2, n / 3}, {n - 1, 0}, {1, n / 2}} {
		a, b := pair[0], pair[1]
		if a == b {
			continue
		}
		r1 := routeNames(p1, p1.HostByID(a), p1.HostByID(b))
		r2 := routeNames(p2, p2.HostByID(a), p2.HostByID(b))
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("route %d->%d differs between builds: %v vs %v", a, b, r1, r2)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	spec := fatTree16()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Metrics()
	if got := len(p.Hosts()); got != 16 || got != m.Hosts {
		t.Fatalf("hosts = %d, metrics %d, want 16", got, m.Hosts)
	}
	if got := len(p.Links()); got != m.Links {
		t.Errorf("links = %d, metrics say %d", got, m.Links)
	}
	// Full bisection: the unoversubscribed tree moves half the hosts'
	// injection bandwidth across the top cut.
	if want := float64(16) / 2 * spec.LinkBandwidth; m.BisectionBandwidth != want {
		t.Errorf("bisection = %g, want full %g", m.BisectionBandwidth, want)
	}
	// Same leaf switch: one hop up, one hop down.
	if got := len(p.Route(p.HostByID(0), p.HostByID(3)).Links); got != 2 {
		t.Errorf("same-leaf route has %d links, want 2", got)
	}
	// Different leaf switches: up to the spine and back down.
	if got := len(p.Route(p.HostByID(0), p.HostByID(15)).Links); got != 4 {
		t.Errorf("cross-pod route has %d links, want 4", got)
	}
	if got := maxHops(t, p); got != m.Diameter {
		t.Errorf("empirical diameter %d, metrics say %d", got, m.Diameter)
	}
}

func TestFatTreeOversubscription(t *testing.T) {
	full := fatTree16().Metrics()
	over := fatTree16()
	over.Up = []int{1, 2} // halve the spine
	if got := over.Metrics().BisectionBandwidth; got >= full.BisectionBandwidth {
		t.Errorf("oversubscribed bisection %g not below full %g", got, full.BisectionBandwidth)
	}
	three := fatTree64()
	m := three.Metrics()
	if m.Hosts != 64 || m.Diameter != 6 {
		t.Errorf("fattree64 metrics %+v, want 64 hosts, diameter 6", m)
	}
	p, err := three.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := maxHops(t, p); got != 6 {
		t.Errorf("fattree64 empirical diameter %d, want 6", got)
	}
}

// TestFatTreeDModK verifies the convergence property of D-mod-k routing:
// every source outside the destination's top-level subtree reaches the
// destination through the same spine switch, i.e. the same final descent.
func TestFatTreeDModK(t *testing.T) {
	spec := fatTree16()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	dst := p.HostByID(13)
	var descent []string
	for _, src := range p.Hosts() {
		if src.ID/4 == dst.ID/4 { // same leaf subtree: no spine crossing
			continue
		}
		r := p.Route(src, dst)
		tail := []string{r.Links[len(r.Links)-2].Name(), r.Links[len(r.Links)-1].Name()}
		if descent == nil {
			descent = tail
		} else if !reflect.DeepEqual(descent, tail) {
			t.Fatalf("descent to host 13 differs by source: %v vs %v", descent, tail)
		}
	}
}

func TestTorusStructure(t *testing.T) {
	spec := TorusSpec{Name: "t44", Dims: []int{4, 4}, HostSpeed: 1e9, LinkBandwidth: 125e6, LinkLatency: 5 * core.Microsecond}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Metrics()
	if len(p.Hosts()) != 16 || m.Hosts != 16 {
		t.Fatalf("hosts = %d, want 16", len(p.Hosts()))
	}
	if got := len(p.Links()); got != m.Links || got != 16*2*2 {
		t.Errorf("links = %d, want %d", got, m.Links)
	}
	// Dimension-order hop counts: wrap distance per dimension, dim 0 first.
	cases := []struct {
		a, b, hops int
	}{
		{0, 1, 1},   // +1 in dim 0
		{0, 3, 1},   // wrap -1 in dim 0
		{0, 4, 1},   // +1 in dim 1
		{0, 5, 2},   // diagonal
		{0, 10, 4},  // opposite corner: 2 + 2 (the diameter)
		{5, 15, 4},  // (1,1) -> (3,3): two tie-broken forward hops per dim
		{0, 2, 2},   // +2 in dim 0 (tie: forward)
		{12, 0, 1},  // (0,3) -> (0,0): wrap +1 in dim 1
		{15, 15, 0}, // self
	}
	for _, c := range cases {
		if got := len(p.Route(p.HostByID(c.a), p.HostByID(c.b)).Links); got != c.hops {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
	if got := maxHops(t, p); got != m.Diameter || got != 4 {
		t.Errorf("empirical diameter %d, metrics %d, want 4", got, m.Diameter)
	}
	// Bisection of a 4x4 torus: 2*16/4 = 8 crossing cables.
	if want := 8 * spec.LinkBandwidth; m.BisectionBandwidth != want {
		t.Errorf("bisection %g, want %g", m.BisectionBandwidth, want)
	}
	// Dimension order: the route 0 -> 5 fixes dim 0 before dim 1.
	names := routeNames(p, p.HostByID(0), p.HostByID(5))
	if !strings.Contains(names[0], "-d0-") || !strings.Contains(names[1], "-d1-") {
		t.Errorf("route 0->5 not dimension-ordered: %v", names)
	}
}

func TestTorus3D(t *testing.T) {
	spec := torus64()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Metrics()
	if len(p.Hosts()) != 64 || m.Diameter != 6 {
		t.Fatalf("torus64: %d hosts, diameter %d", len(p.Hosts()), m.Diameter)
	}
	if got := maxHops(t, p); got != 6 {
		t.Errorf("empirical diameter %d, want 6", got)
	}
}

func TestDragonflyStructure(t *testing.T) {
	spec := dragonfly72()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Metrics()
	if len(p.Hosts()) != 72 || m.Hosts != 72 {
		t.Fatalf("hosts = %d, want 72", len(p.Hosts()))
	}
	if got := len(p.Links()); got != m.Links {
		t.Errorf("links = %d, metrics say %d", got, m.Links)
	}
	// Minimal path lengths: 2 within a router, 3 within a group, <= 5 across.
	if got := len(p.Route(p.HostByID(0), p.HostByID(1)).Links); got != 2 {
		t.Errorf("same-router route has %d links, want 2", got)
	}
	if got := len(p.Route(p.HostByID(0), p.HostByID(3)).Links); got != 3 {
		t.Errorf("same-group route has %d links, want 3", got)
	}
	cross := len(p.Route(p.HostByID(0), p.HostByID(71)).Links)
	if cross < 3 || cross > 5 {
		t.Errorf("cross-group route has %d links, want 3..5", cross)
	}
	if got := maxHops(t, p); got != m.Diameter || got != 5 {
		t.Errorf("empirical diameter %d, metrics %d, want 5", got, m.Diameter)
	}
	// Every cross-group route crosses exactly one global cable.
	for _, a := range p.Hosts()[:8] {
		for _, b := range p.Hosts()[64:] {
			globals := 0
			for _, l := range p.Route(a, b).Links {
				if strings.Contains(l.Name(), "-g") && strings.Count(l.Name(), "-g") == 2 {
					globals++
				}
			}
			if globals != 1 {
				t.Fatalf("route %s->%s crosses %d global links, want 1", a.Name(), b.Name(), globals)
			}
		}
	}
}

func TestDeterministicRoutes(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { checkDeterministic(t, spec) })
	}
}

func TestPresetsAndParse(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if _, err := spec.Build(); err != nil {
			t.Errorf("preset %s build: %v", name, err)
		}
	}
	cases := []struct {
		in    string
		hosts int
	}{
		{"fattree16", 16},
		{"fattree:4,4:1,4", 16},
		{"fattree:4x4:1x4", 16}, // x form: survives comma-separated flag lists
		{"fattree:2,2,2:1,2,2", 8},
		{"torus:4x4x4", 64},
		{"torus:8x8", 64},
		{"dragonfly:9x4x2", 72},
		{"dragonfly:5x2x3", 30},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := spec.Metrics().Hosts; got != c.hosts {
			t.Errorf("ParseSpec(%q) has %d hosts, want %d", c.in, got, c.hosts)
		}
	}
	for _, bad := range []string{"", "wat", "fattree:4,4", "torus:1x4", "dragonfly:9x4", "ring:8"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// hosts returns the number of hosts (the product of Down), as the other
// specs' hosts methods do.
func (s FatTreeSpec) hosts() int {
	n, _ := hostCount(s.Down...)
	return n
}

// FuzzParseSpec feeds arbitrary strings to the shape grammar: no input
// panics, and every shape it accepts has at least two hosts. (It builds
// nothing: dragonfly Metrics is quadratic in the group count.)
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"fattree16", "fattree:4x4:1x4", "fattree:2,2,2:1,2,2", "torus:4x4x4",
		"dragonfly:9x4x2", "torus:4294967296x4294967296", "fattree:4294967296x4294967296:1x1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if n := spec.(interface{ hosts() int }).hosts(); n < 2 {
			t.Fatalf("ParseSpec(%q) accepted a shape with %d hosts", s, n)
		}
	})
}

// TestXMLRoundTripTopologies writes every topology element alongside a
// cluster, reads the file back, and checks specs survive bit-exact and
// still build.
func TestXMLRoundTripTopologies(t *testing.T) {
	ft, to, df := fatTree64(), torus64(), dragonfly72()
	var buf bytes.Buffer
	if err := platform.WriteXML(&buf, platform.Griffon(), ft, to, df); err != nil {
		t.Fatal(err)
	}
	specs, err := platform.ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadXML: %v\n%s", err, buf.String())
	}
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	if _, ok := specs[0].(platform.ClusterSpec); !ok {
		t.Errorf("spec 0 is %T, want ClusterSpec", specs[0])
	}
	if got, ok := specs[1].(FatTreeSpec); !ok || !reflect.DeepEqual(got, ft) {
		t.Errorf("fattree roundtrip: %+v, want %+v", specs[1], ft)
	}
	if got, ok := specs[2].(TorusSpec); !ok || !reflect.DeepEqual(got, to) {
		t.Errorf("torus roundtrip: %+v, want %+v", specs[2], to)
	}
	if got, ok := specs[3].(DragonflySpec); !ok || !reflect.DeepEqual(got, df) {
		t.Errorf("dragonfly roundtrip: %+v, want %+v", specs[3], df)
	}
	for i, s := range specs {
		if _, err := s.Build(); err != nil {
			t.Errorf("spec %d build after roundtrip: %v", i, err)
		}
	}
}
