package platform

import (
	"fmt"
	"sort"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
)

// ClusterSpec describes a hierarchical cluster: cabinets of nodes, each
// cabinet behind its own switch, all cabinet switches connected to a
// second-level switch (the backbone). This matches the topology of the
// paper's evaluation clusters.
type ClusterSpec struct {
	// Name prefixes host and link names ("griffon" -> "griffon-0", ...).
	Name string
	// Cabinets lists the number of nodes in each cabinet (switch group).
	Cabinets []int
	// NodeSpeed is the per-node compute speed in flop/s.
	NodeSpeed float64
	// NodeLinkBandwidth/NodeLinkLatency describe the node-to-cabinet-switch
	// link. Each node gets separate full-duplex up and down links.
	NodeLinkBandwidth float64
	NodeLinkLatency   core.Duration
	// CabinetBackplaneBandwidth/CabinetBackplaneLatency describe each
	// cabinet switch's internal backplane, a shared resource crossed by
	// every flow through the switch. A finite backplane is what makes
	// many-to-many traffic (the paper's all-to-all, Figure 11) contend
	// even between disjoint node pairs.
	CabinetBackplaneBandwidth float64
	CabinetBackplaneLatency   core.Duration
	// UplinkBandwidth/UplinkLatency describe the cabinet-switch-to-backbone
	// link (again split into up and down directions).
	UplinkBandwidth float64
	UplinkLatency   core.Duration
	// BackboneBandwidth/BackboneLatency describe the second-level switch.
	BackboneBandwidth float64
	BackboneLatency   core.Duration
	// BackboneFatPipe makes the backbone a non-blocking crossbar: flows are
	// individually capped at BackboneBandwidth but do not contend there.
	BackboneFatPipe bool
}

// NodeCount returns the total number of nodes across cabinets.
func (s ClusterSpec) NodeCount() int {
	n := 0
	for _, c := range s.Cabinets {
		n += c
	}
	return n
}

// Validate reports the first structural problem with the spec, if any.
func (s ClusterSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster spec: empty name")
	case len(s.Cabinets) == 0:
		return fmt.Errorf("cluster spec %q: no cabinets", s.Name)
	case s.NodeSpeed <= 0:
		return fmt.Errorf("cluster spec %q: non-positive node speed", s.Name)
	case s.NodeLinkBandwidth <= 0 || s.UplinkBandwidth <= 0 || s.BackboneBandwidth <= 0:
		return fmt.Errorf("cluster spec %q: non-positive bandwidth", s.Name)
	case s.CabinetBackplaneBandwidth <= 0:
		return fmt.Errorf("cluster spec %q: non-positive cabinet backplane bandwidth", s.Name)
	}
	for i, c := range s.Cabinets {
		if c <= 0 {
			return fmt.Errorf("cluster spec %q: cabinet %d has %d nodes", s.Name, i, c)
		}
	}
	return nil
}

func init() { RegisterXMLSpec("cluster", (*ClusterSpec).bindXML) }

// bindXML lists the attributes of the <cluster> element.
func (s *ClusterSpec) bindXML(b *XMLBinder) {
	b.Text("id", &s.Name)
	b.Flops("speed", &s.NodeSpeed)
	b.Ints("cabinets", &s.Cabinets, ",")
	b.Rate("bw", &s.NodeLinkBandwidth)
	b.Duration("lat", &s.NodeLinkLatency)
	b.Rate("bp_bw", &s.CabinetBackplaneBandwidth)
	b.Duration("bp_lat", &s.CabinetBackplaneLatency)
	b.Rate("uplink_bw", &s.UplinkBandwidth)
	b.Duration("uplink_lat", &s.UplinkLatency)
	b.Rate("bb_bw", &s.BackboneBandwidth)
	b.Duration("bb_lat", &s.BackboneLatency)
	b.sharing("bb_sharing", &s.BackboneFatPipe)
}

// Build instantiates the platform for the spec: per-node up/down links,
// per-cabinet up/down uplinks, one backbone link, and the implicit
// hierarchical router (closed-form link indices, no per-pair storage).
func (s ClusterSpec) Build() (*Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := New(s.Name)
	n := s.NodeCount()
	p.Reserve(n, 3*len(s.Cabinets)+2*n+1)

	// prefix[ci] is the number of nodes in cabinets before ci; the router
	// derives every link index from it (see clusterRouter), and the link
	// namer inverts the same arithmetic to answer Name() on demand.
	prefix := make([]int, len(s.Cabinets))
	for ci := range s.Cabinets {
		if ci > 0 {
			prefix[ci] = prefix[ci-1] + s.Cabinets[ci-1]
		}
	}
	p.SetLinkNamer(s.linkNamer(prefix, 3*len(s.Cabinets)+2*n))
	for ci, count := range s.Cabinets {
		p.NewLink(s.UplinkBandwidth, s.UplinkLatency, lmm.Shared)                     // cab up
		p.NewLink(s.UplinkBandwidth, s.UplinkLatency, lmm.Shared)                     // cab down
		p.NewLink(s.CabinetBackplaneBandwidth, s.CabinetBackplaneLatency, lmm.Shared) // backplane
		for ni := 0; ni < count; ni++ {
			h := p.NewHost(s.NodeSpeed)
			h.Cabinet = ci
			p.NewLink(s.NodeLinkBandwidth, s.NodeLinkLatency, lmm.Shared) // node up
			p.NewLink(s.NodeLinkBandwidth, s.NodeLinkLatency, lmm.Shared) // node down
		}
	}

	policy := lmm.Shared
	if s.BackboneFatPipe {
		policy = lmm.FatPipe
	}
	backbone := p.NewLink(s.BackboneBandwidth, s.BackboneLatency, policy)

	p.SetRouter(&clusterRouter{p: p, prefix: prefix, backbone: backbone.ID})
	diameter := 3 // up, backplane, down
	// The balanced cut of a single cabinet crosses its shared backplane;
	// across cabinets it crosses the smaller half's uplinks, additionally
	// capped by the backbone in aggregate unless the backbone is a
	// non-blocking crossbar (FatPipe caps flows individually only).
	bisection := s.CabinetBackplaneBandwidth
	if len(s.Cabinets) > 1 {
		diameter = 7 // up, backplane, cab-up, backbone, cab-down, backplane, down
		// The smaller half of the uplinks bounds the cut: floor(n/2) of
		// them, summed (a product can round differently from the sum).
		bisection = 0
		for range len(s.Cabinets) / 2 {
			bisection += s.UplinkBandwidth
		}
		if !s.BackboneFatPipe && s.BackboneBandwidth < bisection {
			bisection = s.BackboneBandwidth
		}
	}
	p.Topo = &TopoInfo{
		Kind:  "cluster",
		Hosts: n,
		// Node up/down pairs, cabinet up/down pairs and backplanes, backbone.
		Links:              2*n + 3*len(s.Cabinets) + 1,
		Diameter:           diameter,
		BisectionBandwidth: bisection,
	}
	return p, nil
}

// linkNamer returns the derived-name function of cluster links: the inverse
// of the build-order link IDs (per cabinet ci: cab-up, cab-down, backplane,
// then an up/down pair per node; the backbone last at ID total). It is only
// consulted when a link's name is actually wanted, never while routing.
func (s ClusterSpec) linkNamer(prefix []int, total int) func(id int) string {
	return func(id int) string {
		if id >= total {
			return s.Name + "-backbone"
		}
		// Largest ci with cabBase(ci) <= id, where cabBase(ci) = 3*ci +
		// 2*prefix[ci] is increasing in ci.
		ci := sort.Search(len(prefix)-1, func(c int) bool { return 3*(c+1)+2*prefix[c+1] > id })
		off := id - (3*ci + 2*prefix[ci])
		switch off {
		case 0:
			return fmt.Sprintf("%s-cab%d-up", s.Name, ci)
		case 1:
			return fmt.Sprintf("%s-cab%d-down", s.Name, ci)
		case 2:
			return fmt.Sprintf("%s-cab%d-backplane", s.Name, ci)
		}
		hostID := prefix[ci] + (off-3)/2
		if (off-3)%2 == 0 {
			return fmt.Sprintf("%s-up-%d", s.Name, hostID)
		}
		return fmt.Sprintf("%s-down-%d", s.Name, hostID)
	}
}

// clusterRouter is the implicit router of cluster platforms. Link IDs
// follow the build order — per cabinet ci: cab-up, cab-down, backplane,
// then an up/down pair per node — so every route is pure index arithmetic
// over the cabinet prefix sums; the router state is O(cabinets) regardless
// of node count, and nothing is stored per host pair.
type clusterRouter struct {
	p *Platform
	// prefix[ci] is the number of nodes in cabinets before ci.
	prefix []int
	// backbone is the link ID of the second-level switch (the last link).
	backbone int
}

// cabBase returns the link ID of cabinet ci's up link; down and backplane
// follow at +1 and +2.
func (r *clusterRouter) cabBase(ci int) int { return 3*ci + 2*r.prefix[ci] }

// nodeUp returns the link ID of the host's up link; its down link is +1.
// Every link of cabinets 0..Cabinet and every node pair of ids < h.ID
// precedes it in build order.
func (r *clusterRouter) nodeUp(h *Host) int { return 3*(h.Cabinet+1) + 2*h.ID }

// RouteInto implements Router.
func (r *clusterRouter) RouteInto(buf []*Link, a, b *Host) Route {
	start := len(buf)
	link := r.p.LinkByID
	if a.Cabinet == b.Cabinet {
		buf = append(buf,
			link(r.nodeUp(a)),
			link(r.cabBase(a.Cabinet)+2), // backplane
			link(r.nodeUp(b)+1))          // node down
	} else {
		buf = append(buf,
			link(r.nodeUp(a)),
			link(r.cabBase(a.Cabinet)+2), // source backplane
			link(r.cabBase(a.Cabinet)),   // cabinet up
			link(r.backbone),
			link(r.cabBase(b.Cabinet)+1), // cabinet down
			link(r.cabBase(b.Cabinet)+2), // destination backplane
			link(r.nodeUp(b)+1))          // node down
	}
	route := Route{Links: buf}
	for _, l := range buf[start:] {
		route.Latency += l.Latency
	}
	return route
}

// SwitchHops returns the number of switches a message between the two hosts
// traverses on a cluster built by Build: 1 inside a cabinet, 3 across
// cabinets (cabinet switch, second-level switch, cabinet switch). This is
// the quantity the paper's Figure 5 varies.
func SwitchHops(a, b *Host) int {
	if a.Cabinet == b.Cabinet {
		return 1
	}
	return 3
}

// Griffon returns the spec for the griffon cluster of the paper: 92 nodes
// (2.5 GHz dual-proc quad-core Xeon L5420) in cabinets of 33, 27 and 32
// nodes, Gigabit Ethernet to each cabinet switch, cabinet switches
// interconnected through a 10 Gigabit second-level switch.
func Griffon() ClusterSpec {
	return ClusterSpec{
		Name:                      "griffon",
		Cabinets:                  []int{33, 27, 32},
		NodeSpeed:                 1e9, // 1 Gf/s reference speed for burst scaling
		NodeLinkBandwidth:         125e6,
		NodeLinkLatency:           20 * core.Microsecond,
		CabinetBackplaneBandwidth: 1.25e9,
		CabinetBackplaneLatency:   2 * core.Microsecond,
		UplinkBandwidth:           1.25e9,
		UplinkLatency:             4 * core.Microsecond,
		BackboneBandwidth:         1.25e9,
		BackboneLatency:           2 * core.Microsecond,
		BackboneFatPipe:           true,
	}
}

// Gdx returns the spec for the gdx cluster: 312 nodes (2.0 GHz dual-proc
// Opteron 246), two cabinets per switch (modelled as 18 switch groups),
// 1 Gigabit links everywhere including the uplinks to the single
// second-level switch.
func Gdx() ClusterSpec {
	groups := make([]int, 18)
	remaining := 312
	for i := range groups {
		n := 17
		if i < 312-17*18 { // distribute the remainder
			n++
		}
		groups[i] = n
		remaining -= n
	}
	_ = remaining
	return ClusterSpec{
		Name:                      "gdx",
		Cabinets:                  groups,
		NodeSpeed:                 0.8e9, // slower nodes than griffon
		NodeLinkBandwidth:         125e6,
		NodeLinkLatency:           25 * core.Microsecond,
		CabinetBackplaneBandwidth: 1e9,
		CabinetBackplaneLatency:   3 * core.Microsecond,
		UplinkBandwidth:           125e6,
		UplinkLatency:             5 * core.Microsecond,
		BackboneBandwidth:         1.25e9,
		BackboneLatency:           3 * core.Microsecond,
		BackboneFatPipe:           true,
	}
}
