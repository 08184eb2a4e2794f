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

// TableRouter serves routes from an explicit per-pair table: the manual
// AddRoute routes of hand-built platforms. Pairs missing from
// the table fall through to Fallback when set; otherwise the lookup panics
// naming the table. The table is meant to be filled while the platform is
// built and read-only afterwards (RouteInto is then concurrency-safe).
type TableRouter struct {
	name string
	// Fallback, when non-nil, serves the pairs the table has no entry for.
	// Platform.AddRoute wires the previously installed router here, keeping
	// the historical "explicit pairs first, computed routes second" order.
	Fallback Router
	entries  map[[2]int]tableEntry
}

// tableEntry stores one direction of a route. A symmetric route is stored
// once: the reverse direction shares the forward link slice and is served
// by iterating it backward (reversed == true) instead of materializing a
// second copy.
type tableEntry struct {
	links    []*Link
	latency  core.Duration
	reversed bool
}

// NewTableRouter returns an empty table named for diagnostics (platform
// name, file name, ... — whatever identifies the table's origin).
func NewTableRouter(name string) *TableRouter {
	return &TableRouter{name: name, entries: make(map[[2]int]tableEntry)}
}

// String implements fmt.Stringer for missing-route diagnostics.
func (t *TableRouter) String() string {
	return fmt.Sprintf("table router %q (%d routes)", t.name, len(t.entries))
}

// Len returns the number of directed routes in the table (a symmetric
// route counts as two).
func (t *TableRouter) Len() int { return len(t.entries) }

func (t *TableRouter) add(a, b *Host, links []*Link, lat core.Duration, rev bool) {
	t.entries[[2]int{a.ID, b.ID}] = tableEntry{links: links, latency: lat, reversed: rev}
}

// Add installs the route from a to b (one direction only). The link slice
// is retained, not copied.
func (t *TableRouter) Add(a, b *Host, links []*Link) {
	var lat core.Duration
	for _, l := range links {
		lat += l.Latency
	}
	t.add(a, b, links, lat, false)
}

// AddSymmetric installs the route from a to b and its mirror from b to a.
// Only the forward link slice is stored; the reverse direction is a view
// that iterates it backward, so a symmetric route costs one slice, not two.
func (t *TableRouter) AddSymmetric(a, b *Host, links []*Link) {
	var lat core.Duration
	for _, l := range links {
		lat += l.Latency
	}
	t.add(a, b, links, lat, false)
	t.add(b, a, links, lat, true)
}

// RouteInto implements Router.
func (t *TableRouter) RouteInto(buf []*Link, a, b *Host) Route {
	e, ok := t.entries[[2]int{a.ID, b.ID}]
	if !ok {
		if t.Fallback != nil {
			return t.Fallback.RouteInto(buf, a, b)
		}
		panic(fmt.Sprintf("platform: %v: no route between %q and %q", t, a.Name(), b.Name()))
	}
	if !e.reversed {
		if cap(buf) == 0 {
			// No caller buffer: serve the stored slice directly (callers
			// must treat Route.Links as read-only, as with any router).
			return Route{Links: e.links, Latency: e.latency}
		}
		return Route{Links: append(buf, e.links...), Latency: e.latency}
	}
	for i := len(e.links) - 1; i >= 0; i-- {
		buf = append(buf, e.links[i])
	}
	return Route{Links: buf, Latency: e.latency}
}
