// Package platform describes simulated target platforms: hosts with a
// compute speed, network links with bandwidth and latency, and routes
// between host pairs. It mirrors the role of SimGrid's platform layer that
// SMPI simulations take as input (paper Section 6).
//
// The package also provides a hierarchical cluster builder matching the
// Grid'5000 machines used in the paper's evaluation — griffon (92 nodes in
// 3 cabinets behind a 10 Gbps second-level switch) and gdx (312 nodes, two
// cabinets per switch, 1 Gbps links throughout) — and an XML serialization
// of cluster descriptions in the spirit of SimGrid's DTD. The XML spec
// registry is open: package topology registers <fattree>, <torus>, and
// <dragonfly> elements alongside <cluster>. Each element lists its
// attributes once, in one bind function per spec (one XMLBinder call per
// attribute: name, field, unit, optional or not), and WriteXML and ReadXML
// both walk that list, so every builder's spec round-trips.
//
// Routing is pluggable behind the Router interface, whose single method
// RouteInto(buf, a, b) appends the route's links into a caller-owned
// buffer — reusing one buffer per call site makes repeat lookups
// allocation-free, so routes are computed on demand and never stored per
// host pair. The cluster builder and the topology generators install
// implicit routers: closed-form functions of the host coordinates with
// O(1) state, which is what lets a 65536-host platform route in O(hosts)
// total memory (the former per-ordered-pair memo map was O(hosts²)).
//
// A platform is built in exactly one of two ways. Builders work from a
// spec: NewHost, NewLink, SetLinkNamer and SetRouter, with derived names
// and an implicit router. Test fixtures are built by hand: AddHost,
// AddLink and AddRoute, with explicit names and a private table of
// symmetric pair routes (the reverse direction iterates the forward slice
// backward). A call from the other mode panics.
//
// Host and link storage is compact: array-of-structs slabs (bulk-allocated
// via Reserve when the builder knows its counts) addressed by dense IDs,
// with stable *Host/*Link pointers as the public view.
//
// Builders that know their interconnect's structure annotate the result:
// Platform.Topo records the family and structural metrics (consumed by the
// smpi layer's "auto" collective selection), and Host.Cabinet records the
// lowest-level switch group (consumed by package placement's round-robin
// mapper). Both are optional — a nil Topo and Cabinet == -1 simply mean
// "structure unknown" and every consumer falls back to a flat view.
package platform
