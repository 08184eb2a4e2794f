package platform

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
)

func TestAddHostAndLookup(t *testing.T) {
	p := New("test")
	h := p.AddHost("n0", 1e9)
	if p.Host("n0") != h {
		t.Error("lookup by name failed")
	}
	if p.HostByID(0) != h {
		t.Error("lookup by ID failed")
	}
	if h.Cabinet != -1 {
		t.Error("hand-built host should have cabinet -1")
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate host name should panic")
		}
	}()
	p := New("test")
	p.AddHost("n0", 1e9)
	p.AddHost("n0", 1e9)
}

func TestManualRouteSymmetry(t *testing.T) {
	p := New("test")
	a := p.AddHost("a", 1e9)
	b := p.AddHost("b", 1e9)
	l1 := p.AddLink("l1", 125e6, 10*core.Microsecond, lmm.Shared)
	l2 := p.AddLink("l2", 250e6, 5*core.Microsecond, lmm.Shared)
	p.AddRoute(a, b, []*Link{l1, l2})

	fwd := p.Route(a, b)
	if len(fwd.Links) != 2 || fwd.Links[0] != l1 {
		t.Errorf("forward route wrong: %v", fwd.Links)
	}
	rev := p.Route(b, a)
	if len(rev.Links) != 2 || rev.Links[0] != l2 {
		t.Errorf("reverse route should be reversed: %v", rev.Links)
	}
	wantLat := 15 * core.Microsecond
	if math.Abs(float64(fwd.Latency-wantLat)) > 1e-12 {
		t.Errorf("latency %v, want %v", fwd.Latency, wantLat)
	}
	if fwd.Bottleneck() != 125e6 {
		t.Errorf("bottleneck %v, want 125e6", fwd.Bottleneck())
	}
}

func TestSelfRouteIsEmpty(t *testing.T) {
	p := New("test")
	a := p.AddHost("a", 1e9)
	r := p.Route(a, a)
	if len(r.Links) != 0 || r.Latency != 0 {
		t.Errorf("self route should be empty, got %v", r)
	}
}

func TestMissingRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing route should panic")
		}
	}()
	p := New("test")
	a := p.AddHost("a", 1e9)
	b := p.AddHost("b", 1e9)
	p.Route(a, b)
}

func TestGriffonTopology(t *testing.T) {
	spec := Griffon()
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Hosts()); got != 92 {
		t.Fatalf("griffon has %d hosts, want 92", got)
	}
	// 92 nodes x 2 links + 3 cabinets x (2 uplinks + backplane) + backbone.
	if got, want := len(p.Links()), 92*2+3*3+1; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	// Same cabinet: up, cabinet backplane, down; one switch.
	a, b := p.HostByID(0), p.HostByID(1)
	r := p.Route(a, b)
	if len(r.Links) != 3 {
		t.Errorf("intra-cabinet route has %d links, want 3", len(r.Links))
	}
	if SwitchHops(a, b) != 1 {
		t.Error("intra-cabinet should be 1 switch")
	}
	// Cross cabinet: node up, cabinet up, backbone, cabinet down, node down.
	c := p.HostByID(40) // second cabinet starts at 33
	if c.Cabinet == a.Cabinet {
		t.Fatal("host 40 should be in another cabinet")
	}
	r = p.Route(a, c)
	if len(r.Links) != 7 {
		t.Errorf("cross-cabinet route has %d links, want 7", len(r.Links))
	}
	if SwitchHops(a, c) != 3 {
		t.Error("cross-cabinet should be 3 switches")
	}
	if r.Bottleneck() != 125e6 {
		t.Errorf("bottleneck %v, want node link 125e6", r.Bottleneck())
	}
	// Cross-cabinet latency must exceed intra-cabinet latency.
	if p.Route(a, c).Latency <= p.Route(a, b).Latency {
		t.Error("cross-cabinet route should have higher latency")
	}
}

func TestGdxTopology(t *testing.T) {
	p, err := Gdx().Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Hosts()); got != 312 {
		t.Fatalf("gdx has %d hosts, want 312", got)
	}
	spec := Gdx()
	if len(spec.Cabinets) != 18 {
		t.Errorf("gdx should model 18 switch groups, got %d", len(spec.Cabinets))
	}
	if spec.NodeCount() != 312 {
		t.Errorf("spec node count %d, want 312", spec.NodeCount())
	}
	// Find two hosts 3 switches apart and verify the uplink is the 1G
	// bottleneck (gdx's defining property vs griffon).
	a := p.HostByID(0)
	var far *Host
	for _, h := range p.Hosts() {
		if h.Cabinet != a.Cabinet {
			far = h
			break
		}
	}
	if far == nil {
		t.Fatal("no far host found")
	}
	r := p.Route(a, far)
	if len(r.Links) != 7 {
		t.Errorf("gdx cross route has %d links, want 7", len(r.Links))
	}
	if r.Bottleneck() != 125e6 {
		t.Errorf("gdx bottleneck %v, want 125e6", r.Bottleneck())
	}
}

func TestRouterSymmetricLatency(t *testing.T) {
	p, err := Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.HostByID(3), p.HostByID(70)
	if p.Route(a, b).Latency != p.Route(b, a).Latency {
		t.Error("route latency should be symmetric")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []ClusterSpec{
		{},
		{Name: "x"},
		{Name: "x", Cabinets: []int{4}, NodeSpeed: 0},
		{Name: "x", Cabinets: []int{0}, NodeSpeed: 1},
		{Name: "x", Cabinets: []int{4}, NodeSpeed: 1, NodeLinkBandwidth: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
	if err := Griffon().Validate(); err != nil {
		t.Errorf("griffon preset invalid: %v", err)
	}
	if err := Gdx().Validate(); err != nil {
		t.Errorf("gdx preset invalid: %v", err)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteXML(&buf, Griffon(), Gdx()); err != nil {
		t.Fatal(err)
	}
	specs, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(specs))
	}
	var clusters []ClusterSpec
	for _, s := range specs {
		if c, ok := s.(ClusterSpec); ok {
			clusters = append(clusters, c)
		}
	}
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	g := clusters[0]
	want := Griffon()
	if g.Name != want.Name || g.NodeCount() != want.NodeCount() {
		t.Errorf("griffon roundtrip mismatch: %+v", g)
	}
	if math.Abs(g.NodeLinkBandwidth-want.NodeLinkBandwidth) > 1 {
		t.Errorf("bw roundtrip: %v vs %v", g.NodeLinkBandwidth, want.NodeLinkBandwidth)
	}
	if math.Abs(float64(g.NodeLinkLatency-want.NodeLinkLatency)) > 1e-12 {
		t.Errorf("lat roundtrip: %v vs %v", g.NodeLinkLatency, want.NodeLinkLatency)
	}
	if g.BackboneFatPipe != want.BackboneFatPipe {
		t.Error("bb_sharing roundtrip mismatch")
	}
}

func TestXMLErrors(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("<platform version='1'/>")); err == nil {
		t.Error("empty platform should fail")
	}
	if _, err := ReadXML(strings.NewReader("not xml")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadXML(strings.NewReader("<platform version='1'><wat/></platform>")); err == nil {
		t.Error("unregistered element should fail")
	}
	bad := `<platform version="1"><cluster id="x" speed="zzz" cabinets="4" bw="1Gbps" lat="1us" uplink_bw="1Gbps" uplink_lat="1us" bb_bw="1Gbps" bb_lat="1us"/></platform>`
	if _, err := ReadXML(strings.NewReader(bad)); err == nil {
		t.Error("bad speed should fail")
	}
	badPolicy := `<platform version="1"><cluster id="x" speed="1Gf" cabinets="4" bw="1Gbps" lat="1us" uplink_bw="1Gbps" uplink_lat="1us" bb_bw="1Gbps" bb_lat="1us" bb_sharing="WAT"/></platform>`
	if _, err := ReadXML(strings.NewReader(badPolicy)); err == nil {
		t.Error("bad sharing policy should fail")
	}
}

// TestTableRouterReverseView checks the symmetric-route storage contract:
// one stored slice serves both directions, the reverse by backward
// iteration into the caller's buffer, with no materialized copy.
func TestTableRouterReverseView(t *testing.T) {
	p := New("table")
	a := p.AddHost("a", 1e9)
	b := p.AddHost("b", 1e9)
	l1 := p.AddLink("l1", 1e9, core.Microsecond, lmm.Shared)
	l2 := p.AddLink("l2", 1e9, core.Microsecond, lmm.Shared)
	p.AddRoute(a, b, []*Link{l1, l2})

	buf := make([]*Link, 0, 8)
	fwd := p.RouteInto(buf[:0], a, b)
	if len(fwd.Links) != 2 || fwd.Links[0] != l1 || fwd.Links[1] != l2 {
		t.Errorf("forward route wrong: %v", fwd.Links)
	}
	rev := p.RouteInto(buf[:0], b, a)
	if len(rev.Links) != 2 || rev.Links[0] != l2 || rev.Links[1] != l1 {
		t.Errorf("reverse route wrong: %v", rev.Links)
	}
	// Reverse lookups into a reused buffer must not allocate: the stored
	// forward slice is iterated backward, never copied.
	allocs := testing.AllocsPerRun(100, func() {
		p.RouteInto(buf[:0], b, a)
		p.RouteInto(buf[:0], a, b)
	})
	if allocs != 0 {
		t.Errorf("RouteInto with reused buffer allocates %v times per lookup pair, want 0", allocs)
	}
}

// TestMissingRoutePanicNamesRouter checks the one-code-path diagnostic:
// a pair missing from a hand-built platform's route table panics naming
// the table that failed, not a generic message.
func TestMissingRoutePanicNamesRouter(t *testing.T) {
	p := New("gap")
	a := p.AddHost("a", 1e9)
	b := p.AddHost("b", 1e9)
	c := p.AddHost("c", 1e9)
	l := p.AddLink("l", 1e9, core.Microsecond, lmm.Shared)
	p.AddRoute(a, b, []*Link{l})
	defer func() {
		msg := recover()
		if msg == nil {
			t.Fatal("missing table route should panic")
		}
		if s := fmt.Sprint(msg); !strings.Contains(s, "table router") || !strings.Contains(s, "gap") {
			t.Errorf("panic %q does not name the failing router", s)
		}
	}()
	p.Route(a, c)
}

// TestRouteIntoZeroAlloc checks the hot-path contract of the implicit
// cluster router: resolving routes into a reused buffer performs no
// allocations at all.
func TestRouteIntoZeroAlloc(t *testing.T) {
	p, err := Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := p.HostByID(0), p.HostByID(1), p.HostByID(40)
	buf := make([]*Link, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if r := p.RouteInto(buf[:0], a, b); len(r.Links) != 3 {
			t.Fatal("bad intra-cabinet route")
		}
		if r := p.RouteInto(buf[:0], a, c); len(r.Links) != 7 {
			t.Fatal("bad cross-cabinet route")
		}
	})
	if allocs != 0 {
		t.Errorf("RouteInto allocates %v times per run, want 0", allocs)
	}
}

// Property: every host pair on a built cluster has a route whose first and
// last links are the endpoints' own links, and latency is positive and
// symmetric.
func TestClusterRoutesProperty(t *testing.T) {
	p, err := Griffon().Build()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Hosts())
	f := func(ai, bi uint16) bool {
		a := p.HostByID(int(ai) % n)
		b := p.HostByID(int(bi) % n)
		if a == b {
			return true
		}
		r := p.Route(a, b)
		if len(r.Links) < 2 || r.Latency <= 0 {
			return false
		}
		if r.Bottleneck() <= 0 {
			return false
		}
		return p.Route(b, a).Latency == r.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBuildTimeValidation pins the constructor-level capacity validation:
// zero is legal (a failed resource the dynamics layer can also produce),
// negative and NaN panic at build time with the offending resource named —
// mirroring lmm.NewConstraint instead of failing much later inside the
// solver or at flow start.
func TestBuildTimeValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	cases := []struct {
		name  string
		value float64
		ok    bool
	}{
		{"zero", 0, true},
		{"positive", 1e9, true},
		{"negative", -1, false},
		{"nan", math.NaN(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := map[string]func(){
				"NewHost": func() { New("p").NewHost(c.value) },
				"AddHost": func() { New("p").AddHost("h", c.value) },
				"NewLink": func() { New("p").NewLink(c.value, 1e-6, lmm.Shared) },
				"AddLink": func() { New("p").AddLink("l", c.value, 1e-6, lmm.Shared) },
			}
			for name, fn := range build {
				if c.ok {
					fn() // must not panic
				} else {
					mustPanic(name+"/"+c.name, fn)
				}
			}
		})
	}
}

// TestClusterProfiles checks the per-cabinet heterogeneity multipliers:
// node speeds and uplink bandwidths scale by their cabinet's entry, and the
// bisection metric tracks the weaker uplink half.
func TestClusterProfiles(t *testing.T) {
	s := Griffon()
	s.CabinetSpeed = []float64{1, 0.5, 2}
	s.CabinetUplinkWidth = []float64{1, 0.25, 1}
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Cabinet boundaries: 33, 27, 32 nodes.
	for _, c := range []struct {
		host  int
		speed float64
	}{{0, 1e9}, {33, 0.5e9}, {60, 2e9}} {
		if got := p.HostByID(c.host).Speed; got != c.speed {
			t.Errorf("host %d speed %v, want %v", c.host, got, c.speed)
		}
	}
	for _, l := range p.Links() {
		switch l.Name() {
		case "griffon-cab1-up", "griffon-cab1-down":
			if l.Bandwidth != s.UplinkBandwidth/4 {
				t.Errorf("%s bandwidth %v, want %v", l.Name(), l.Bandwidth, s.UplinkBandwidth/4)
			}
		case "griffon-cab0-up", "griffon-cab2-up":
			if l.Bandwidth != s.UplinkBandwidth {
				t.Errorf("%s bandwidth %v, want %v", l.Name(), l.Bandwidth, s.UplinkBandwidth)
			}
		}
	}
	// floor(3/2) = 1 crossing uplink; the weakest (quarter width) bounds
	// the cut, below the fat-pipe backbone.
	if want := s.UplinkBandwidth / 4; p.Topo.BisectionBandwidth != want {
		t.Errorf("bisection %v, want %v", p.Topo.BisectionBandwidth, want)
	}
	bad := Griffon()
	bad.CabinetSpeed = []float64{1, 2} // wrong length
	if err := bad.Validate(); err == nil {
		t.Error("short CabinetSpeed profile validated")
	}
}
