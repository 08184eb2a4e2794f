package platform

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
