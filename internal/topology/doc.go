// Package topology generates interconnect topologies as platform.Platform
// instances: k-ary fat-trees (XGFT), 2D/3D tori, and dragonflies. The
// paper's evaluation (conf_ipps_ClaussSGSCQ11) runs SMPI only on flat
// hierarchical clusters; this package opens the platform axis so every
// experiment can be swept across the interconnect shapes of real HPC
// machines.
//
// Each generator emits per-dimension links and installs a deterministic
// static router on the platform:
//
//   - fat-tree: D-mod-k up/down routing — the upward redundant-parent
//     choice at each level is a digit of the destination ID, so all traffic
//     towards one host converges through the same spine switches;
//   - torus: dimension-order routing — correct each coordinate in dimension
//     order along the shorter wrap direction (ties go the positive way);
//   - dragonfly: minimal routing — host up-link, local hop to the source
//     group's gateway router, one global link, local hop to the destination
//     router, host down-link.
//
// Builders use no randomness: the same spec always yields the same hosts,
// links, and routes, which keeps campaign sweeps over the topology axis
// bit-identical at any worker count. Routers are closed-form functions of
// the host IDs, so routes are computed on demand and never stored.
//
// Specs implement platform.Spec and build through its spec mode (NewHost,
// NewLink, SetLinkNamer, SetRouter). Each registers its XML element with
// one bind function listing its attributes once, so WriteXML/ReadXML
// round-trip <fattree>, <torus>, and <dragonfly> alongside <cluster>.
//
// Every builder also annotates its result for the layers above: the spec's
// Metrics, a platform.TopoInfo (family, hosts, links, diameter, bisection
// bandwidth) computed without a build, is the value Build attaches to
// platform.Platform.Topo, which is what the smpi layer's "auto" collective
// selection keys on, and each host's
// Cabinet field records its lowest-level group — the leaf switch of a
// fat-tree, the dimension-0 ring of a torus, the router of a dragonfly —
// which is what package placement's round-robin mapper deals ranks across.
package topology
