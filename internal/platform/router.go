package platform

import (
	"fmt"

	"smpigo/internal/core"
)

// Router computes the route between two distinct hosts of a platform.
//
// RouteInto appends the route's links to buf — normally the empty prefix of
// a caller-owned buffer (`buf[:0]` or nil) — and returns the Route built on
// the appended slice, with Latency covering exactly the links this call
// appended. A router that reuses one buffer per call site pays zero
// allocations per route; this is what makes implicit (computed, never
// stored) routing affordable on the per-message hot path.
//
// Implementations must be deterministic (same pair, same links, always),
// must not retain buf, are only consulted for distinct hosts (Platform
// handles a == b as loopback), and must panic with a message naming
// themselves when they have no route for a pair — the panic is the
// platform's missing-route diagnostic. Routers are read-only after the
// platform is built, so RouteInto is safe for concurrent use.
type Router interface {
	RouteInto(buf []*Link, a, b *Host) Route
}

// routeTable is the router of a hand-built platform: the symmetric pair
// routes installed with AddRoute. A pair missing from the table panics
// naming the table. The table is filled while the platform is built and
// read-only afterwards (RouteInto is then concurrency-safe).
type routeTable struct {
	platform string
	routes   map[[2]int]tableRoute
}

// tableRoute stores one direction of a route. A symmetric route is stored
// once: the reverse direction shares the forward link slice and is served
// by iterating it backward (reversed == true) instead of materializing a
// second copy.
type tableRoute struct {
	links    []*Link
	latency  core.Duration
	reversed bool
}

// add installs the route from a to b and its mirror from b to a. The link
// slice is retained, not copied.
func (t *routeTable) add(a, b *Host, links []*Link) {
	var lat core.Duration
	for _, l := range links {
		lat += l.Latency
	}
	t.routes[[2]int{a.ID, b.ID}] = tableRoute{links: links, latency: lat}
	t.routes[[2]int{b.ID, a.ID}] = tableRoute{links: links, latency: lat, reversed: true}
}

// RouteInto implements Router.
func (t *routeTable) RouteInto(buf []*Link, a, b *Host) Route {
	e, ok := t.routes[[2]int{a.ID, b.ID}]
	if !ok {
		panic(fmt.Sprintf("platform: table router %q (%d routes): no route between %q and %q",
			t.platform, len(t.routes), a.Name(), b.Name()))
	}
	if !e.reversed {
		return Route{Links: append(buf, e.links...), Latency: e.latency}
	}
	for i := len(e.links) - 1; i >= 0; i-- {
		buf = append(buf, e.links[i])
	}
	return Route{Links: buf, Latency: e.latency}
}
