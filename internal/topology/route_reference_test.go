package topology

import (
	"fmt"
	"testing"

	"smpigo/internal/core"
	"smpigo/internal/platform"
)

// The implicit routers recover link IDs by arithmetic over the build order.
// That arithmetic is exactly the kind of code that can be off by one on an
// asymmetric shape while every symmetric preset still passes, so this file
// rebuilds the original materialized routing logic — link lookups by NAME,
// the way the generators wired the topology — and asserts the implicit
// routes are link-for-link identical on every preset plus deliberately
// lopsided extra shapes.

// linkIndex maps every link name to its object so the reference routers can
// resolve paths the slow, self-evident way.
func linkIndex(p *platform.Platform) map[string]*platform.Link {
	idx := make(map[string]*platform.Link, len(p.Links()))
	for _, l := range p.Links() {
		idx[l.Name()] = l
	}
	return idx
}

// gateway returns the router index in group g holding the global cable to
// group peer: the reference's own copy of dragonflyRouter.gateway.
func (s DragonflySpec) gateway(g, peer int) int {
	idx := peer
	if peer > g {
		idx--
	}
	return idx % s.RoutersPerGroup
}

// referenceRouter returns a by-name route function mirroring the routing
// policy each generator implemented before it went implicit.
func referenceRouter(t *testing.T, spec Spec, p *platform.Platform) func(a, b *platform.Host) []*platform.Link {
	t.Helper()
	idx := linkIndex(p)
	link := func(format string, args ...any) *platform.Link {
		name := fmt.Sprintf(format, args...)
		l, ok := idx[name]
		if !ok {
			t.Fatalf("reference router: no link named %q", name)
		}
		return l
	}
	switch s := spec.(type) {
	case FatTreeSpec:
		prodDown, prodUp := s.products()
		return func(a, b *platform.Host) []*platform.Link {
			src, dst := a.ID, b.ID
			top := 1
			for src/prodDown[top] != dst/prodDown[top] {
				top++
			}
			var links []*platform.Link
			ai, bi := src, 0
			for l := 1; l <= top; l++ {
				j := (dst / prodUp[l-1]) % s.Up[l-1]
				links = append(links, link("%s-l%d-c%d-p%d-up", s.Name, l, ai*prodUp[l-1]+bi, j))
				bi = bi*s.Up[l-1] + j
				ai /= s.Down[l-1]
			}
			for l := top; l >= 1; l-- {
				j := bi % s.Up[l-1]
				bi /= s.Up[l-1]
				child := (dst/prodDown[l-1])*prodUp[l-1] + bi
				links = append(links, link("%s-l%d-c%d-p%d-down", s.Name, l, child, j))
			}
			return links
		}
	case TorusSpec:
		coords := func(id int) []int {
			c := make([]int, len(s.Dims))
			for d, k := range s.Dims {
				c[d] = id % k
				id /= k
			}
			return c
		}
		toID := func(c []int) int {
			id := 0
			for d := len(s.Dims) - 1; d >= 0; d-- {
				id = id*s.Dims[d] + c[d]
			}
			return id
		}
		return func(a, b *platform.Host) []*platform.Link {
			cur, dst := coords(a.ID), coords(b.ID)
			var links []*platform.Link
			for d, k := range s.Dims {
				delta := ((dst[d]-cur[d])%k + k) % k
				if delta == 0 {
					continue
				}
				if 2*delta <= k {
					for step := 0; step < delta; step++ {
						links = append(links, link("%s-%d-d%d-plus", s.Name, toID(cur), d))
						cur[d] = (cur[d] + 1) % k
					}
				} else {
					for step := 0; step < k-delta; step++ {
						links = append(links, link("%s-%d-d%d-minus", s.Name, toID(cur), d))
						cur[d] = (cur[d] - 1 + k) % k
					}
				}
			}
			return links
		}
	case DragonflySpec:
		a, ph := s.RoutersPerGroup, s.HostsPerRouter
		return func(ha, hb *platform.Host) []*platform.Link {
			src, dst := ha.ID, hb.ID
			srcRouter, dstRouter := src/ph, dst/ph
			srcGroup, dstGroup := srcRouter/a, dstRouter/a
			sr, dr := srcRouter%a, dstRouter%a
			links := []*platform.Link{link("%s-%d-up", s.Name, src)}
			switch {
			case srcRouter == dstRouter:
			case srcGroup == dstGroup:
				links = append(links, link("%s-g%d-r%d-r%d", s.Name, srcGroup, sr, dr))
			default:
				gw := s.gateway(srcGroup, dstGroup)
				if sr != gw {
					links = append(links, link("%s-g%d-r%d-r%d", s.Name, srcGroup, sr, gw))
				}
				links = append(links, link("%s-g%d-g%d", s.Name, srcGroup, dstGroup))
				gw = s.gateway(dstGroup, srcGroup)
				if gw != dr {
					links = append(links, link("%s-g%d-r%d-r%d", s.Name, dstGroup, gw, dr))
				}
			}
			return append(links, link("%s-%d-down", s.Name, dst))
		}
	default:
		t.Fatalf("reference router: unsupported spec type %T", spec)
		return nil
	}
}

// TestImplicitRoutesMatchReference walks every host pair of every preset
// (and shapes with non-uniform, odd, and prime extents) and requires the
// implicit route to equal the by-name reference route link for link — the
// same *Link objects, in the same order, with matching total latency.
func TestImplicitRoutesMatchReference(t *testing.T) {
	shapes := []string{
		"fattree16", "fattree64", "torus16", "torus64", "dragonfly72",
		// Lopsided shapes that would expose off-by-ones the symmetric
		// presets mask: mixed up/down fan, odd and prime torus extents
		// (exercising both wrap directions and the tie-break), a dragonfly
		// where groups outnumber routers and one where routers dominate.
		"fattree:2x3x4:1x2x3",
		"torus:5x3x2",
		"torus:7x2",
		"dragonfly:7x3x2",
		"dragonfly:3x5x2",
	}
	for _, shape := range shapes {
		t.Run(shape, func(t *testing.T) {
			spec, err := ParseSpec(shape)
			if err != nil {
				t.Fatal(err)
			}
			p, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceRouter(t, spec, p)
			hosts := p.Hosts()
			buf := make([]*platform.Link, 0, 32)
			for _, a := range hosts {
				for _, b := range hosts {
					if a == b {
						continue
					}
					got := p.RouteInto(buf[:0], a, b)
					want := ref(a, b)
					if len(got.Links) != len(want) {
						t.Fatalf("%s -> %s: %d links, reference has %d",
							a.Name(), b.Name(), len(got.Links), len(want))
					}
					var wantLat core.Duration
					for i, l := range want {
						if got.Links[i] != l {
							t.Fatalf("%s -> %s link %d: got %q, reference %q",
								a.Name(), b.Name(), i, got.Links[i].Name(), l.Name())
						}
						wantLat += l.Latency
					}
					if got.Latency != wantLat {
						t.Fatalf("%s -> %s: latency %v, reference %v",
							a.Name(), b.Name(), got.Latency, wantLat)
					}
				}
			}
		})
	}
}
