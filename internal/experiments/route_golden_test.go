package experiments

import (
	"testing"

	"smpigo/internal/core"
)

// implicitRoutingFingerprint is the fingerprint of a cross-topology campaign
// (allreduce, 16 procs, 64KiB, fattree16/torus16/dragonfly72 × block/rr
// placement, auto collectives, seed 5) recorded while the topology
// generators still materialized per-pair route tables. Keeping it pinned
// proves the implicit O(1)-state routers of the Router API redesign resolve
// every route link-for-link as the old tables did: any deviation in link
// sets, ordering, or latency would shift simulated timestamps, and the
// fingerprint hashes every simulated time in the summary.
const implicitRoutingFingerprint = "c37b74579cd4c210"

// TestImplicitRoutingFingerprintUnchanged re-runs the cross-topology
// campaign over all three generator families and asserts the
// pre-redesign golden fingerprint, at two worker counts (covering the
// any-parallel determinism property on the way).
func TestImplicitRoutingFingerprintUnchanged(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:          "allreduce",
		Procs:       []int{16},
		Sizes:       []int64{64 * core.KiB},
		Models:      []string{"piecewise"},
		Backends:    []string{"surf"},
		Topologies:  []string{"fattree16", "torus16", "dragonfly72"},
		Placements:  []string{"block", "rr"},
		Collectives: "auto",
	}
	for _, workers := range []int{1, 4} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if got := sum.Fingerprint(); got != implicitRoutingFingerprint {
			t.Errorf("workers=%d: campaign fingerprint %s, want pre-redesign golden %s — implicit routing changed simulated timestamps",
				workers, got, implicitRoutingFingerprint)
		}
	}
}
