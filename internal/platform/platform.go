package platform

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
)

// Host is a compute node of the target platform.
type Host struct {
	// ID is the dense index of the host inside its platform.
	ID int
	// Speed is the compute speed in flop/s, used to convert flop amounts
	// into delays and to scale timings between host and target nodes.
	Speed float64
	// Cabinet is the index of the lowest-level switch group holding the
	// node — the cabinet of a hierarchical cluster, the leaf switch of a
	// fat-tree, the dimension-0 ring of a torus, the router of a dragonfly —
	// or -1 when the platform has no group structure. Placement mappers use
	// it to lay ranks out within or across groups.
	Cabinet int

	p *Platform
}

// Name returns the unique host name, e.g. "griffon-12". It is derived on
// demand from the platform name and the slab index ("<platform>-<ID>"), so
// nothing is stored per host.
func (h *Host) Name() string { return h.p.hostName(h.ID) }

// Link is a network resource with a capacity and a traversal latency.
type Link struct {
	// ID is the dense index of the link inside its platform.
	ID int
	// Bandwidth is the link capacity in bytes per second.
	Bandwidth float64
	// Latency is the time a byte takes to traverse the link.
	Latency core.Duration
	// Policy selects contention behaviour: Shared links divide Bandwidth
	// among crossing flows; FatPipe links cap each flow individually.
	Policy lmm.SharingPolicy

	p *Platform
}

// Name returns the unique link name, e.g. "griffon-up-12". It is derived on
// demand from the installed link namer (builders register the inverse of
// their build-order link-ID arithmetic via SetLinkNamer), so nothing is
// stored per link.
func (l *Link) Name() string { return l.p.linkName(l.ID) }

// TopoInfo describes the structural family and metrics of a built platform.
// Builders that know their interconnect shape (the cluster builder here, the
// generators in package topology) attach one to Platform.Topo; test
// fixtures leave it nil. Consumers use it for policy decisions that depend
// on the interconnect — the smpi layer keys its "auto" collective-algorithm
// selection on Kind, and the placement mappers read the lowest-level group
// structure off Host.Cabinet, which every TopoInfo-setting builder fills.
type TopoInfo struct {
	// Kind is the interconnect family: "cluster", "fattree", "torus", or
	// "dragonfly".
	Kind string
	// Hosts and Links count the platform's compute nodes and directed links.
	Hosts, Links int
	// Diameter is the maximum route length between two hosts in links
	// traversed (0 when the builder does not compute it).
	Diameter int
	// BisectionBandwidth is the aggregate one-way bandwidth in bytes/s
	// crossing the balanced structural cut (0 when not computed).
	BisectionBandwidth float64
}

// Route is an ordered list of links connecting two hosts, with the
// aggregate latency precomputed. Routes returned by Platform.RouteInto share
// storage with the caller's buffer; treat Links as read-only.
type Route struct {
	Links   []*Link
	Latency core.Duration
}

// Bottleneck returns the smallest link bandwidth along the route, which is
// the reference bandwidth B0 the piece-wise linear model factors multiply.
func (r Route) Bottleneck() float64 {
	if len(r.Links) == 0 {
		return 0
	}
	min := r.Links[0].Bandwidth
	for _, l := range r.Links[1:] {
		if l.Bandwidth < min {
			min = l.Bandwidth
		}
	}
	return min
}

// slabSize is the default capacity of a host/link storage slab when the
// builder gave no Reserve hint. Slabs are never reallocated once handed
// out, so *Host/*Link handles stay stable as the platform grows.
const slabSize = 1 << 12

// Platform is a set of hosts, links, and a router.
//
// Hosts and links live in contiguous array-of-structs slabs — one bulk
// allocation per Reserve call or per slabSize objects — and are addressed
// internally by dense IDs; the *Host/*Link pointers handed to callers are
// stable views into the slabs.
//
// A platform is built from a spec with NewHost, NewLink, SetLinkNamer and
// SetRouter. Names are derived on demand from the slab index (hosts) or the
// link namer (links), and routes are computed by the implicit router, so a
// 65536-host platform costs a couple hundred bytes per host with no
// per-name or per-pair bookkeeping. Test fixtures (dumbbells, stars) are
// built the same way by package platformtest.
type Platform struct {
	Name string
	// Topo describes the interconnect family and structural metrics when the
	// builder knows them; nil for test fixtures.
	Topo *TopoInfo

	hostSlabs [][]Host
	linkSlabs [][]Link
	hosts     []*Host
	links     []*Link

	// hostPrefix derives NewHost names as hostPrefix + itoa(ID); it defaults
	// to Name + "-", the scheme every builder uses.
	hostPrefix string
	// linkNamer derives NewLink names from the link ID (see SetLinkNamer).
	linkNamer func(id int) string

	// router computes routes between distinct hosts: the implicit router a
	// builder installs with SetRouter (closed-form, O(1) state).
	router Router
}

// New returns an empty platform.
func New(name string) *Platform {
	return &Platform{Name: name, hostPrefix: name + "-"}
}

// hostName resolves a host ID to its name (see Host.Name).
func (p *Platform) hostName(id int) string { return p.hostPrefix + strconv.Itoa(id) }

// linkName resolves a link ID to its name (see Link.Name).
func (p *Platform) linkName(id int) string {
	if p.linkNamer != nil {
		return p.linkNamer(id)
	}
	return p.Name + "-link-" + strconv.Itoa(id)
}

// SetLinkNamer installs the derived-name function for links created with
// NewLink: the inverse of the builder's build-order link-ID arithmetic.
// The namer must be pure and must keep answering for every existing derived
// link; it is consulted only when a link's name is actually wanted (error
// messages, reports, lookups), never on the routing or event hot paths.
func (p *Platform) SetLinkNamer(fn func(id int) string) {
	p.linkNamer = fn
}

// Reserve pre-allocates storage for the given numbers of additional hosts
// and links in one slab each. Builders that know their final counts call it
// once up front so the whole platform lands in two bulk allocations;
// growing past a reservation (or never reserving) falls back to fixed-size
// slabs. Existing *Host/*Link handles remain valid either way.
func (p *Platform) Reserve(hosts, links int) {
	if hosts > 0 {
		p.hostSlabs = append(p.hostSlabs, make([]Host, 0, hosts))
		if cap(p.hosts)-len(p.hosts) < hosts {
			grown := make([]*Host, len(p.hosts), len(p.hosts)+hosts)
			copy(grown, p.hosts)
			p.hosts = grown
		}
	}
	if links > 0 {
		p.linkSlabs = append(p.linkSlabs, make([]Link, 0, links))
		if cap(p.links)-len(p.links) < links {
			grown := make([]*Link, len(p.links), len(p.links)+links)
			copy(grown, p.links)
			p.links = grown
		}
	}
}

// appendHost stores a new host in the current slab, opening a slab when the
// last one is full so that no host ever moves, and indexes it by ID.
func (p *Platform) appendHost(speed float64) *Host {
	if n := len(p.hostSlabs); n == 0 || len(p.hostSlabs[n-1]) == cap(p.hostSlabs[n-1]) {
		p.hostSlabs = append(p.hostSlabs, make([]Host, 0, slabSize))
	}
	slab := &p.hostSlabs[len(p.hostSlabs)-1]
	*slab = append(*slab, Host{ID: len(p.hosts), Speed: speed, Cabinet: -1, p: p})
	h := &(*slab)[len(*slab)-1]
	p.hosts = append(p.hosts, h)
	return h
}

// appendLink is appendHost for links.
func (p *Platform) appendLink(bandwidth float64, latency core.Duration, policy lmm.SharingPolicy) *Link {
	if n := len(p.linkSlabs); n == 0 || len(p.linkSlabs[n-1]) == cap(p.linkSlabs[n-1]) {
		p.linkSlabs = append(p.linkSlabs, make([]Link, 0, slabSize))
	}
	slab := &p.linkSlabs[len(p.linkSlabs)-1]
	*slab = append(*slab, Link{ID: len(p.links), Bandwidth: bandwidth, Latency: latency, Policy: policy, p: p})
	l := &(*slab)[len(*slab)-1]
	p.links = append(p.links, l)
	return l
}

// NewHost creates a host. Its name is derived on demand from the slab index
// ("<platform>-<ID>"), storing nothing per name.
//
// NewHost and NewLink validate capacities at build time, mirroring
// lmm.NewConstraint: zero is legal (a failed resource), negative and NaN
// panic naming the resource, instead of failing much later, deep inside the
// solver or at flow start.
func (p *Platform) NewHost(speed float64) *Host {
	if speed < 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("platform: invalid speed %v for host %d", speed, len(p.hosts)))
	}
	return p.appendHost(speed)
}

// NewLink creates a link. Its name is derived on demand from the link namer
// registered with SetLinkNamer (or "<platform>-link-<ID>" without one),
// storing nothing per name.
func (p *Platform) NewLink(bandwidth float64, latency core.Duration, policy lmm.SharingPolicy) *Link {
	if bandwidth < 0 || math.IsNaN(bandwidth) {
		panic(fmt.Sprintf("platform: invalid bandwidth %v for link %d", bandwidth, len(p.links)))
	}
	return p.appendLink(bandwidth, latency, policy)
}

// Hosts returns all hosts in ID order.
func (p *Platform) Hosts() []*Host { return p.hosts }

// Links returns all links in ID order.
func (p *Platform) Links() []*Link { return p.links }

// Host returns the host with the given name, or nil. There is no name index
// to consult: the lookup inverts the derived scheme, with a strict
// round-trip check so only the one spelling Name() produces resolves
// ("<prefix>007" and "<prefix>+7" are not hosts even when "<prefix>7" is).
func (p *Platform) Host(name string) *Host {
	suffix, ok := strings.CutPrefix(name, p.hostPrefix)
	if !ok {
		return nil
	}
	id, err := strconv.Atoi(suffix)
	if err != nil || id < 0 || id >= len(p.hosts) || strconv.Itoa(id) != suffix {
		return nil
	}
	return p.hosts[id]
}

// HostByID returns the host with the given dense ID.
func (p *Platform) HostByID(id int) *Host { return p.hosts[id] }

// LinkByID returns the link with the given dense ID. Implicit routers use
// it to turn closed-form link indices into link handles.
func (p *Platform) LinkByID(id int) *Link { return p.links[id] }

// SetRouter installs the platform's implicit router. The router must be deterministic (same pair, same route) and read-only
// once the platform is in use. Routes are computed on every lookup —
// implicit routers are cheap enough that nothing is memoized.
// SetRouter is not safe to call concurrently with Route.
func (p *Platform) SetRouter(r Router) {
	p.router = r
}

// RouteInto resolves the route from a to b, appending its links to buf —
// normally the empty prefix of a caller-owned buffer — and returning the
// route built on the appended slice. Reusing one buffer per call site
// makes repeat lookups allocation-free. Routing a host to itself returns
// an empty route (loopback communications are instantaneous at the network
// level; memory-copy costs belong to the MPI layer). Safe for concurrent
// use once the platform is built.
func (p *Platform) RouteInto(buf []*Link, a, b *Host) Route {
	if a == b {
		return Route{Links: buf}
	}
	if p.router == nil {
		panic(fmt.Sprintf("platform %q: no router installed, no route between %q and %q", p.Name, a.Name(), b.Name()))
	}
	return p.router.RouteInto(buf, a, b)
}

// Route resolves the route from a to b into a fresh slice (sized from the
// topology diameter when known). Callers that resolve routes in a loop and
// do not retain them should prefer RouteInto with a reused buffer.
func (p *Platform) Route(a, b *Host) Route {
	if a == b {
		return Route{}
	}
	var buf []*Link
	if p.Topo != nil && p.Topo.Diameter > 0 {
		buf = make([]*Link, 0, p.Topo.Diameter)
	}
	return p.RouteInto(buf, a, b)
}
