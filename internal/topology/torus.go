package topology

import (
	"fmt"

	"smpigo/internal/core"
	"smpigo/internal/lmm"
	"smpigo/internal/platform"
)

// TorusSpec describes a k-ary n-dimensional torus (2D/3D meshes with
// wrap-around, the interconnect of Blue Gene and Cray XT machines). Hosts
// sit at the grid points; each host owns one directed link per dimension
// and direction to its wrap-around neighbors, so a full-duplex cable is a
// pair of directed links.
type TorusSpec struct {
	// Name prefixes host and link names.
	Name string
	// Dims are the per-dimension extents, e.g. {4, 4, 4} for a 4x4x4 torus.
	Dims []int
	// HostSpeed is the per-host compute speed in flop/s.
	HostSpeed float64
	// LinkBandwidth/LinkLatency apply to every neighbor link.
	LinkBandwidth float64
	LinkLatency   core.Duration
	// DimWidths optionally scales link bandwidth per dimension: the
	// dimension-d rings run at LinkBandwidth*DimWidths[d]. Empty means
	// homogeneous; otherwise the length must equal len(Dims). Wider
	// low-order rings match machines whose in-board wiring outruns the
	// inter-cabinet cables.
	DimWidths []float64
	// RowSpeeds optionally scales host speed per dimension-0 row,
	// cyclically: hosts in row r run at HostSpeed*RowSpeeds[r%len(RowSpeeds)].
	RowSpeeds []float64
}

// Hosts returns the number of hosts (the product of Dims).
func (s TorusSpec) Hosts() int {
	n, _ := hostCount(s.Dims...)
	return n
}

// Validate implements platform.Spec.
func (s TorusSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("torus spec: empty name")
	case len(s.Dims) < 1 || len(s.Dims) > 3:
		return fmt.Errorf("torus spec %q: %d dimensions, want 1-3", s.Name, len(s.Dims))
	case s.HostSpeed <= 0:
		return fmt.Errorf("torus spec %q: non-positive host speed", s.Name)
	case s.LinkBandwidth <= 0:
		return fmt.Errorf("torus spec %q: non-positive link bandwidth", s.Name)
	}
	for d, k := range s.Dims {
		if k < 2 {
			return fmt.Errorf("torus spec %q: dimension %d has extent %d, want >= 2", s.Name, d, k)
		}
	}
	if _, err := hostCount(s.Dims...); err != nil {
		return fmt.Errorf("torus spec %q: %w", s.Name, err)
	}
	if err := platform.CheckProfile(s.DimWidths, len(s.Dims)); err != nil {
		return fmt.Errorf("torus spec %q: dim widths: %w", s.Name, err)
	}
	if err := platform.CheckProfile(s.RowSpeeds, -1); err != nil {
		return fmt.Errorf("torus spec %q: row speeds: %w", s.Name, err)
	}
	return nil
}

// Build implements platform.Spec: one host per grid point, a plus- and a
// minus-direction link per (host, dimension), and the implicit
// dimension-order router.
func (s TorusSpec) Build() (*platform.Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := platform.New(s.Name)
	n := s.Hosts()
	ndims := len(s.Dims)
	p.Reserve(n, 2*n*ndims)
	// Link names are derived on demand from the build-order IDs (host i's
	// plus link in dimension d is i*2*ndims + 2*d, minus at +1).
	p.SetLinkNamer(func(id int) string {
		rem := id % (2 * ndims)
		dir := "-plus"
		if rem%2 == 1 {
			dir = "-minus"
		}
		return fmt.Sprintf("%s-%d-d%d%s", s.Name, id/(2*ndims), rem/2, dir)
	})
	for i := 0; i < n; i++ {
		row := i / s.Dims[0]
		host := p.NewHost(s.HostSpeed * platform.ProfileAt(s.RowSpeeds, row))
		// The dimension-0 ring is the lowest-level group (neighbors there
		// are one cable apart); placement mappers lay ranks out by it.
		host.Cabinet = row
		for d := 0; d < ndims; d++ {
			bw := s.LinkBandwidth
			if len(s.DimWidths) > 0 {
				bw *= s.DimWidths[d]
			}
			p.NewLink(bw, s.LinkLatency, lmm.Shared) // plus
			p.NewLink(bw, s.LinkLatency, lmm.Shared) // minus
		}
	}

	p.SetRouter(&torusRouter{p: p, dims: append([]int(nil), s.Dims...)})
	m := s.Metrics()
	p.Topo = &m
	return p, nil
}

// torusRouter routes dimension-order paths implicitly: host i's plus link
// in dimension d has ID i*2*ndims + 2*d (minus at +1, matching the build
// order), so the router stores only the extents slice — O(1) state in the
// host count — and walks coordinates as plain integer arithmetic.
type torusRouter struct {
	p    *platform.Platform
	dims []int
}

// String implements fmt.Stringer for missing-route diagnostics.
func (r *torusRouter) String() string { return "torus dimension-order router" }

// RouteInto implements platform.Router.
func (r *torusRouter) RouteInto(buf []*platform.Link, a, b *platform.Host) platform.Route {
	start := len(buf)
	cur, dst := a.ID, b.ID
	nd := len(r.dims)
	stride := 1
	for d, k := range r.dims {
		cd := (cur / stride) % k
		delta := ((dst/stride)%k - cd + k) % k
		if delta != 0 {
			// Shorter wrap direction; on a tie (even k, delta == k/2) go
			// the positive way so routes stay deterministic.
			if 2*delta <= k {
				for step := 0; step < delta; step++ {
					buf = append(buf, r.p.LinkByID(cur*2*nd+2*d))
					if cd++; cd == k {
						cd, cur = 0, cur-(k-1)*stride
					} else {
						cur += stride
					}
				}
			} else {
				for step := 0; step < k-delta; step++ {
					buf = append(buf, r.p.LinkByID(cur*2*nd+2*d+1))
					if cd--; cd < 0 {
						cd, cur = k-1, cur+(k-1)*stride
					} else {
						cur -= stride
					}
				}
			}
		}
		stride *= k
	}
	route := platform.Route{Links: buf}
	for _, l := range buf[start:] {
		route.Latency += l.Latency
	}
	return route
}

// Metrics implements Spec. The bisection cut halves the dimension with the
// least crossing bandwidth — the largest extent when widths are uniform;
// wrap-around doubles the crossing cables, giving the classic 2*N/k value
// for a homogeneous k-ary n-cube.
func (s TorusSpec) Metrics() platform.TopoInfo {
	n := s.Hosts()
	m := platform.TopoInfo{Kind: "torus", Hosts: n, Links: 2 * n * len(s.Dims)}
	for d, k := range s.Dims {
		m.Diameter += k / 2
		cut := float64(2*n/k) * s.LinkBandwidth
		if len(s.DimWidths) > 0 {
			cut *= s.DimWidths[d]
		}
		if d == 0 || cut < m.BisectionBandwidth {
			m.BisectionBandwidth = cut
		}
	}
	return m
}

// bindXML lists the attributes of the <torus> element.
func (s *TorusSpec) bindXML(b *platform.XMLBinder) {
	b.Text("id", &s.Name)
	b.Flops("speed", &s.HostSpeed)
	b.Ints("dims", &s.Dims, "x")
	b.Rate("bw", &s.LinkBandwidth)
	b.Duration("lat", &s.LinkLatency)
	b.Profile("dim_widths", &s.DimWidths)
	b.Profile("row_speeds", &s.RowSpeeds)
}

// Torus64 is a 4x4x4 3D torus, 64 hosts with 6 neighbor cables each.
func Torus64() TorusSpec {
	return TorusSpec{
		Name:          "torus64",
		Dims:          []int{4, 4, 4},
		HostSpeed:     1e9,
		LinkBandwidth: 125e6,
		LinkLatency:   5 * core.Microsecond,
	}
}

func parseTorus(rest string) (Spec, error) {
	spec := Torus64()
	spec.Name = specName("torus", rest)
	var err error
	if spec.Dims, err = parseIntList(rest, "x"); err != nil {
		return nil, fmt.Errorf("topology: torus dims: %w", err)
	}
	return spec, spec.Validate()
}

func init() {
	platform.RegisterXMLSpec("torus", (*TorusSpec).bindXML)
	registerPreset("torus16", func() Spec {
		s := Torus64()
		s.Name = "torus16"
		s.Dims = []int{4, 4}
		return s
	})
	registerPreset("torus64", func() Spec { return Torus64() })
}
