package topology

import (
	"fmt"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

// DragonflySpec describes a dragonfly (Kim et al. 2008, the interconnect of
// Cray Cascade/Slingshot machines): Groups of RoutersPerGroup routers, each
// serving HostsPerRouter hosts. Routers within a group form a complete
// graph over local links; every pair of groups is joined by exactly one
// global cable, attached round-robin to the groups' routers.
type DragonflySpec struct {
	// Name prefixes host and link names.
	Name string
	// Groups is the number of router groups (>= 2).
	Groups int
	// RoutersPerGroup is the number of routers per group.
	RoutersPerGroup int
	// HostsPerRouter is the number of hosts attached to each router.
	HostsPerRouter int
	// HostSpeed is the per-host compute speed in flop/s.
	HostSpeed float64
	// HostLinkBandwidth/HostLinkLatency describe the host-router links.
	HostLinkBandwidth float64
	HostLinkLatency   core.Duration
	// LocalBandwidth/LocalLatency describe intra-group router-router links.
	LocalBandwidth float64
	LocalLatency   core.Duration
	// GlobalBandwidth/GlobalLatency describe the long inter-group cables.
	GlobalBandwidth float64
	GlobalLatency   core.Duration
}

// hosts returns the number of hosts.
func (s DragonflySpec) hosts() int {
	n, _ := hostCount(s.Groups, s.RoutersPerGroup, s.HostsPerRouter)
	return n
}

// Validate implements platform.Spec.
func (s DragonflySpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("dragonfly spec: empty name")
	case s.Groups < 2:
		return fmt.Errorf("dragonfly spec %q: %d groups, want >= 2", s.Name, s.Groups)
	case s.RoutersPerGroup < 1:
		return fmt.Errorf("dragonfly spec %q: %d routers per group, want >= 1", s.Name, s.RoutersPerGroup)
	case s.HostsPerRouter < 1:
		return fmt.Errorf("dragonfly spec %q: %d hosts per router, want >= 1", s.Name, s.HostsPerRouter)
	case s.HostSpeed <= 0:
		return fmt.Errorf("dragonfly spec %q: non-positive host speed", s.Name)
	case s.HostLinkBandwidth <= 0 || s.LocalBandwidth <= 0 || s.GlobalBandwidth <= 0:
		return fmt.Errorf("dragonfly spec %q: non-positive bandwidth", s.Name)
	}
	if _, err := hostCount(s.Groups, s.RoutersPerGroup, s.HostsPerRouter); err != nil {
		return fmt.Errorf("dragonfly spec %q: %w", s.Name, err)
	}
	return nil
}

// Build implements platform.Spec: host up/down links, directed local links
// between every intra-group router pair, one full-duplex global cable per
// group pair, and the minimal router (local hop to the gateway, one global
// hop, local hop to the destination router).
func (s DragonflySpec) Build() (*platform.Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := platform.New(s.Name)
	g, a, ph := s.Groups, s.RoutersPerGroup, s.HostsPerRouter
	n := s.hosts()
	p.Reserve(n, 2*n+g*a*(a-1)+g*(g-1))
	localBase, globalBase := 2*n, 2*n+g*a*(a-1)
	// Link names are derived on demand by inverting the three build-order
	// ranges: host up/down pairs, then directed locals in (group, r1, r2)
	// order, then global pairs in lexicographic order (forward, backward).
	p.SetLinkNamer(func(id int) string {
		switch {
		case id < localBase:
			dir := "-up"
			if id%2 == 1 {
				dir = "-down"
			}
			return fmt.Sprintf("%s-%d%s", s.Name, id/2, dir)
		case id < globalBase:
			off := id - localBase
			gi := off / (a * (a - 1))
			rem := off % (a * (a - 1))
			r1, r2 := rem/(a-1), rem%(a-1)
			if r2 >= r1 {
				r2++ // the r1 == r2 slot was skipped
			}
			return fmt.Sprintf("%s-g%d-r%d-r%d", s.Name, gi, r1, r2)
		default:
			off := id - globalBase
			pair, back := off/2, off%2
			lo := 0
			for pair >= g-1-lo {
				pair -= g - 1 - lo
				lo++
			}
			hi := lo + 1 + pair
			if back == 1 {
				lo, hi = hi, lo
			}
			return fmt.Sprintf("%s-g%d-g%d", s.Name, lo, hi)
		}
	})
	for i := 0; i < n; i++ {
		host := p.NewHost(s.HostSpeed)
		// The router is the lowest-level group: its hosts reach each other
		// in two links; placement mappers lay ranks out by it.
		host.Cabinet = i / ph
		p.NewLink(s.HostLinkBandwidth, s.HostLinkLatency, lmm.Shared) // up
		p.NewLink(s.HostLinkBandwidth, s.HostLinkLatency, lmm.Shared) // down
	}
	// Directed local links r1 -> r2 inside each group, in (group, r1, r2)
	// order; a*(a-1) links per group.
	for gi := 0; gi < g; gi++ {
		for r1 := 0; r1 < a; r1++ {
			for r2 := 0; r2 < a; r2++ {
				if r1 == r2 {
					continue
				}
				p.NewLink(s.LocalBandwidth, s.LocalLatency, lmm.Shared)
			}
		}
	}
	// Directed global links per unordered group pair (gi < gj), forward
	// then backward, pairs in (gi, gj) lexicographic order.
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			p.NewLink(s.GlobalBandwidth, s.GlobalLatency, lmm.Shared)
			p.NewLink(s.GlobalBandwidth, s.GlobalLatency, lmm.Shared)
		}
	}

	p.SetRouter(&dragonflyRouter{
		p:          p,
		groups:     g,
		routers:    a,
		hostsPer:   ph,
		localBase:  2 * n,
		globalBase: 2*n + g*a*(a-1),
	})
	m := s.Metrics()
	p.Topo = &m
	return p, nil
}

// dragonflyRouter routes minimal paths implicitly: every link ID is a
// closed-form function of the endpoint coordinates and the build-order
// bases, so the router state is five integers — O(1) in the host count.
type dragonflyRouter struct {
	p                     *platform.Platform
	groups, routers       int
	hostsPer              int
	localBase, globalBase int
}

// localID returns the link ID of the directed local link r1 -> r2 in group
// gi: locals were created in (group, r1, r2) order with the r1 == r2 slot
// skipped.
func (r *dragonflyRouter) localID(gi, r1, r2 int) int {
	idx := r2
	if r2 > r1 {
		idx--
	}
	return r.localBase + gi*r.routers*(r.routers-1) + r1*(r.routers-1) + idx
}

// globalID returns the link ID of the directed global link gi -> gj:
// unordered pairs were created in lexicographic order, forward direction
// (lo -> hi) first.
func (r *dragonflyRouter) globalID(gi, gj int) int {
	lo, hi, back := gi, gj, 0
	if gi > gj {
		lo, hi, back = gj, gi, 1
	}
	pair := lo*(r.groups-1) - lo*(lo-1)/2 + hi - lo - 1
	return r.globalBase + 2*pair + back
}

// gateway returns the router index in group g holding the global cable to
// group peer: the g-1 cables of a group are dealt round-robin over its
// routers.
func (r *dragonflyRouter) gateway(g, peer int) int {
	idx := peer
	if peer > g {
		idx--
	}
	return idx % r.routers
}

// RouteInto implements platform.Router.
func (r *dragonflyRouter) RouteInto(buf []*platform.Link, ha, hb *platform.Host) platform.Route {
	start := len(buf)
	src, dst := ha.ID, hb.ID
	srcRouter, dstRouter := src/r.hostsPer, dst/r.hostsPer
	srcGroup, dstGroup := srcRouter/r.routers, dstRouter/r.routers
	sr, dr := srcRouter%r.routers, dstRouter%r.routers

	link := r.p.LinkByID
	buf = append(buf, link(2*src)) // host up
	switch {
	case srcRouter == dstRouter:
		// Same router: up and straight back down.
	case srcGroup == dstGroup:
		buf = append(buf, link(r.localID(srcGroup, sr, dr)))
	default:
		gw := r.gateway(srcGroup, dstGroup)
		if sr != gw {
			buf = append(buf, link(r.localID(srcGroup, sr, gw)))
		}
		buf = append(buf, link(r.globalID(srcGroup, dstGroup)))
		gw = r.gateway(dstGroup, srcGroup)
		if gw != dr {
			buf = append(buf, link(r.localID(dstGroup, gw, dr)))
		}
	}
	buf = append(buf, link(2*dst+1)) // host down
	route := platform.Route{Links: buf}
	for _, l := range buf[start:] {
		route.Latency += l.Latency
	}
	return route
}

// Metrics implements Spec. The bisection cut splits the groups into halves;
// only global cables cross it, one per group pair, summed (a product can
// round differently from the sum).
func (s DragonflySpec) Metrics() platform.TopoInfo {
	g, a := s.Groups, s.RoutersPerGroup
	n := s.hosts()
	m := platform.TopoInfo{
		Kind:  "dragonfly",
		Hosts: n,
		Links: 2*n + g*a*(a-1) + g*(g-1),
	}
	m.Diameter = 3 // up, global, down
	if a > 1 {
		m.Diameter = 5 // up, local, global, local, down
	}
	half := g / 2
	for gi := 0; gi < half; gi++ {
		for gj := half; gj < g; gj++ {
			m.BisectionBandwidth += s.GlobalBandwidth
		}
	}
	return m
}

// bindXML lists the attributes of the <dragonfly> element.
func (s *DragonflySpec) bindXML(b *platform.XMLBinder) {
	b.Text("id", &s.Name)
	b.Flops("speed", &s.HostSpeed)
	b.Int("groups", &s.Groups)
	b.Int("routers", &s.RoutersPerGroup)
	b.Int("hosts", &s.HostsPerRouter)
	b.Rate("bw", &s.HostLinkBandwidth)
	b.Duration("lat", &s.HostLinkLatency)
	b.Rate("local_bw", &s.LocalBandwidth)
	b.Duration("local_lat", &s.LocalLatency)
	b.Rate("global_bw", &s.GlobalBandwidth)
	b.Duration("global_lat", &s.GlobalLatency)
}

// dragonfly72 is a balanced dragonfly with 9 groups of 4 routers and 2
// hosts per router (a = 2p, g = 2a + 1 in Kim et al.'s balancing rule gives
// the 72-host configuration): 72 hosts, diameter 5.
func dragonfly72() DragonflySpec {
	return DragonflySpec{
		Name:              "dragonfly72",
		Groups:            9,
		RoutersPerGroup:   4,
		HostsPerRouter:    2,
		HostSpeed:         1e9,
		HostLinkBandwidth: 125e6,
		HostLinkLatency:   10 * core.Microsecond,
		LocalBandwidth:    125e6,
		LocalLatency:      5 * core.Microsecond,
		GlobalBandwidth:   250e6,
		GlobalLatency:     25 * core.Microsecond,
	}
}

func parseDragonfly(rest string) (Spec, error) {
	dims, err := parseIntList(rest, "x")
	if err != nil {
		return nil, fmt.Errorf("topology: dragonfly shape: %w", err)
	}
	if len(dims) != 3 {
		return nil, fmt.Errorf("topology: dragonfly spec %q: want dragonfly:<groups>x<routers>x<hosts>", rest)
	}
	spec := dragonfly72()
	spec.Name = specName("dragonfly", rest)
	spec.Groups, spec.RoutersPerGroup, spec.HostsPerRouter = dims[0], dims[1], dims[2]
	return spec, spec.Validate()
}

func init() {
	platform.RegisterXMLSpec("dragonfly", (*DragonflySpec).bindXML)
	registerPreset("dragonfly72", func() Spec { return dragonfly72() })
}
