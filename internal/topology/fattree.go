package topology

import (
	"fmt"
	"strings"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

// FatTreeSpec describes a generalized k-ary fat-tree, the XGFT(h; Down; Up)
// of Öhring et al.: h = len(Down) switch levels above the hosts, where a
// level-l node fans out to Down[l] children and every level-l child is
// wired to Up[l] redundant parents. The classic non-oversubscribed two-level
// tree with 4-port leaf switches is Down=[4,4], Up=[1,4].
type FatTreeSpec struct {
	// Name prefixes host and link names.
	Name string
	// Down[l] is the number of children per level-(l+1) node; the host
	// count is the product of all entries.
	Down []int
	// Up[l] is the number of redundant parents each level-l node connects
	// to; Up[0] is the number of uplinks per host.
	Up []int
	// HostSpeed is the per-host compute speed in flop/s.
	HostSpeed float64
	// LinkBandwidth/LinkLatency apply to every link of the tree. Each
	// child-parent cable is a full-duplex pair of directed links.
	LinkBandwidth float64
	LinkLatency   core.Duration
}

// Validate implements platform.Spec.
func (s FatTreeSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("fattree spec: empty name")
	case len(s.Down) == 0:
		return fmt.Errorf("fattree spec %q: no levels", s.Name)
	case len(s.Up) != len(s.Down):
		return fmt.Errorf("fattree spec %q: %d down levels but %d up levels", s.Name, len(s.Down), len(s.Up))
	case s.HostSpeed <= 0:
		return fmt.Errorf("fattree spec %q: non-positive host speed", s.Name)
	case s.LinkBandwidth <= 0:
		return fmt.Errorf("fattree spec %q: non-positive link bandwidth", s.Name)
	}
	for l := range s.Down {
		if s.Down[l] < 2 {
			return fmt.Errorf("fattree spec %q: level %d has %d down ports, want >= 2", s.Name, l, s.Down[l])
		}
		if s.Up[l] < 1 {
			return fmt.Errorf("fattree spec %q: level %d has %d up ports, want >= 1", s.Name, l, s.Up[l])
		}
	}
	if _, err := hostCount(s.Down...); err != nil {
		return fmt.Errorf("fattree spec %q: %w", s.Name, err)
	}
	return nil
}

// prodDown[l] is the subtree size below level l (Down[0]*...*Down[l-1]);
// prodUp[l] is the number of redundant copies of a level-l node
// (Up[0]*...*Up[l-1]).
func (s FatTreeSpec) products() (prodDown, prodUp []int) {
	h := len(s.Down)
	prodDown = make([]int, h+1)
	prodUp = make([]int, h+1)
	prodDown[0], prodUp[0] = 1, 1
	for l := 0; l < h; l++ {
		prodDown[l+1] = prodDown[l] * s.Down[l]
		prodUp[l+1] = prodUp[l] * s.Up[l]
	}
	return prodDown, prodUp
}

// Build implements platform.Spec: it emits one host per leaf, a full-duplex
// link pair per child-parent cable, and installs the implicit D-mod-k
// router.
//
// Nodes at level l are labeled (a, b): a indexes the subtree position
// (a = hostID / prodDown[l] for the subtree holding hostID) and b the
// redundant copy (b < prodUp[l]). Child (a, b) at level l-1 is wired to the
// Up[l-1] parents (a/Down[l-1], b*Up[l-1]+j).
func (s FatTreeSpec) Build() (*platform.Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := platform.New(s.Name)
	h := len(s.Down)
	prodDown, prodUp := s.products()
	n := prodDown[h]

	// levelBase[l] is the link ID of the first level-l link: links are
	// created level by level, child by child, parent port by parent port,
	// up link then down link, so the router can recover any link ID from
	// (level, child, port) without storing link tables.
	levelBase := make([]int, h+2)
	for l := 1; l <= h; l++ {
		children := (n / prodDown[l-1]) * prodUp[l-1]
		levelBase[l+1] = levelBase[l] + 2*children*s.Up[l-1]
	}
	p.Reserve(n, levelBase[h+1])
	// Link names are derived on demand by inverting the build order (level
	// by level, cable by cable, up then down) instead of being stored.
	p.SetLinkNamer(func(id int) string {
		l := 1
		for l < h && levelBase[l+1] <= id {
			l++
		}
		off := id - levelBase[l]
		cable := off / 2
		dir := "-up"
		if off%2 == 1 {
			dir = "-down"
		}
		return fmt.Sprintf("%s-l%d-c%d-p%d%s", s.Name, l, cable/s.Up[l-1], cable%s.Up[l-1], dir)
	})

	for i := 0; i < n; i++ {
		host := p.NewHost(s.HostSpeed)
		// The leaf switch is the lowest-level group: placement mappers use
		// it to pack ranks under (or spread them across) leaf switches.
		host.Cabinet = i / s.Down[0]
	}
	for l := 1; l <= h; l++ {
		children := (n / prodDown[l-1]) * prodUp[l-1]
		for c := 0; c < children; c++ {
			for j := 0; j < s.Up[l-1]; j++ {
				p.NewLink(s.LinkBandwidth, s.LinkLatency, lmm.Shared) // up
				p.NewLink(s.LinkBandwidth, s.LinkLatency, lmm.Shared) // down
			}
		}
	}

	p.SetRouter(&fatTreeRouter{
		p:         p,
		up:        append([]int(nil), s.Up...),
		down:      append([]int(nil), s.Down...),
		prodDown:  prodDown,
		prodUp:    prodUp,
		levelBase: levelBase,
	})
	m := s.Metrics()
	p.Topo = &m
	return p, nil
}

// fatTreeRouter routes D-mod-k up/down paths implicitly: every link ID is
// a closed-form function of the endpoint host IDs and the per-level
// products, so the router stores a few integer slices of length h — O(1)
// in the host count — and nothing per pair or per link.
type fatTreeRouter struct {
	p        *platform.Platform
	up, down []int
	// prodDown[l] is the subtree size below level l; prodUp[l] the number
	// of redundant copies of a level-l node (see FatTreeSpec.products).
	prodDown, prodUp []int
	// levelBase[l] is the link ID of the first level-l link.
	levelBase []int
}

// upLink returns the link ID of the up link from child c at level l-1 to
// its j-th redundant parent; the paired down link is +1.
func (r *fatTreeRouter) upLink(l, c, j int) int {
	return r.levelBase[l] + 2*(c*r.up[l-1]+j)
}

// RouteInto implements platform.Router.
func (r *fatTreeRouter) RouteInto(buf []*platform.Link, a, b *platform.Host) platform.Route {
	start := len(buf)
	src, dst := a.ID, b.ID
	// Nearest common ancestor level: the first level whose subtrees
	// contain both hosts.
	top := 1
	for src/r.prodDown[top] != dst/r.prodDown[top] {
		top++
	}
	// Ascend, choosing the redundant parent by the destination's digit
	// at each level (D-mod-k): traffic to one host always converges
	// through the same switch copies.
	ai, bi := src, 0
	for l := 1; l <= top; l++ {
		j := (dst / r.prodUp[l-1]) % r.up[l-1]
		buf = append(buf, r.p.LinkByID(r.upLink(l, ai*r.prodUp[l-1]+bi, j)))
		bi = bi*r.up[l-1] + j
		ai /= r.down[l-1]
	}
	// Descend: the downward path from the chosen ancestor copy to the
	// destination is unique.
	for l := top; l >= 1; l-- {
		j := bi % r.up[l-1]
		bi /= r.up[l-1]
		child := (dst/r.prodDown[l-1])*r.prodUp[l-1] + bi
		buf = append(buf, r.p.LinkByID(r.upLink(l, child, j)+1))
	}
	route := platform.Route{Links: buf}
	for _, l := range buf[start:] {
		route.Latency += l.Latency
	}
	return route
}

// Metrics implements Spec. The bisection cut splits the tree at the top
// level; its capacity is half the thinnest level's aggregate up-bandwidth
// (cable count times LinkBandwidth), so an unoversubscribed tree reports
// (hosts/2)*Up[0]*LinkBandwidth.
func (s FatTreeSpec) Metrics() platform.TopoInfo {
	h := len(s.Down)
	prodDown, prodUp := s.products()
	n := prodDown[h]
	m := platform.TopoInfo{Kind: "fattree", Hosts: n, Diameter: 2 * h}
	minAgg := 0.0
	for l := 1; l <= h; l++ {
		cables := (n / prodDown[l-1]) * prodUp[l-1] * s.Up[l-1]
		m.Links += 2 * cables
		agg := float64(cables) * s.LinkBandwidth
		if l == 1 || agg < minAgg {
			minAgg = agg
		}
	}
	m.BisectionBandwidth = minAgg / 2
	return m
}

// bindXML lists the attributes of the <fattree> element.
func (s *FatTreeSpec) bindXML(b *platform.XMLBinder) {
	b.Text("id", &s.Name)
	b.Flops("speed", &s.HostSpeed)
	b.Ints("down", &s.Down, ",")
	b.Ints("up", &s.Up, ",")
	b.Rate("bw", &s.LinkBandwidth)
	b.Duration("lat", &s.LinkLatency)
}

// fatTree16 is the classic non-oversubscribed two-level fat-tree: 16 hosts
// under 4-down-port leaf switches, 4 spine switches, full bisection.
func fatTree16() FatTreeSpec {
	return FatTreeSpec{
		Name:          "fattree16",
		Down:          []int{4, 4},
		Up:            []int{1, 4},
		HostSpeed:     1e9,
		LinkBandwidth: 125e6,
		LinkLatency:   10 * core.Microsecond,
	}
}

// fatTree64 is a three-level 64-host fat-tree with 2:1 oversubscription at
// the two upper levels — a realistic mid-size cluster spine.
func fatTree64() FatTreeSpec {
	return FatTreeSpec{
		Name:          "fattree64",
		Down:          []int{4, 4, 4},
		Up:            []int{1, 2, 2},
		HostSpeed:     1e9,
		LinkBandwidth: 125e6,
		LinkLatency:   10 * core.Microsecond,
	}
}

// parseFatTree accepts per-level port lists separated by "x" or "," —
// "fattree:4x4:1x4" and "fattree:4,4:1,4" are the same tree. The x form
// exists so shapes survive comma-separated list flags (-topologies).
func parseFatTree(rest string) (Spec, error) {
	downs, ups, found := strings.Cut(rest, ":")
	if !found {
		return nil, fmt.Errorf("topology: fattree spec %q: want fattree:<down ports>:<up ports>, e.g. fattree:4x4:1x4", rest)
	}
	spec := fatTree16()
	spec.Name = specName("fattree", rest)
	var err error
	if spec.Down, err = parseIntList(strings.ReplaceAll(downs, "x", ","), ","); err != nil {
		return nil, fmt.Errorf("topology: fattree down ports: %w", err)
	}
	if spec.Up, err = parseIntList(strings.ReplaceAll(ups, "x", ","), ","); err != nil {
		return nil, fmt.Errorf("topology: fattree up ports: %w", err)
	}
	return spec, spec.Validate()
}

func init() {
	platform.RegisterXMLSpec("fattree", (*FatTreeSpec).bindXML)
	registerPreset("fattree16", func() Spec { return fatTree16() })
	registerPreset("fattree64", func() Spec { return fatTree64() })
}
