package experiments

import (
	"testing"

	"smpigo/internal/core"
)

// solverSmokeFingerprint is the campaign fingerprint of the 1k-host
// solver-smoke grid (alltoall, 32 procs, 64KiB, fattree:16x8x8:1x8x8, seed
// 7, the grid of the nightly workflow's reference campaign), recorded
// before the event path moved from linear scans onto the completion-time
// min-heap.
// Keeping it pinned proves the heap rewrite changed no simulated timestamp:
// the lazy drain performs bit-for-bit the arithmetic of the former
// every-step drain on this workload, and the fingerprint hashes every
// simulated time in the summary.
const solverSmokeFingerprint = "a8c5d1ab336ca9be"

// TestEventPathFingerprintUnchanged re-runs the solver-smoke campaign and
// asserts the pre-heap golden fingerprint, at two worker counts (so it also
// covers the usual any-parallel determinism property on the way).
func TestEventPathFingerprintUnchanged(t *testing.T) {
	e := env(t)
	spec := GridSpec{
		Op:         "alltoall",
		Procs:      []int{32},
		Sizes:      []int64{64 * core.KiB},
		Backends:   []string{"surf"},
		Topologies: []string{"fattree:16x8x8:1x8x8"},
	}
	for _, workers := range []int{1, 8} {
		sum, err := e.GridCampaignOpts(spec, opts(workers, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		if got := sum.Fingerprint(); got != solverSmokeFingerprint {
			t.Errorf("workers=%d: solver-smoke fingerprint %s, want pre-heap golden %s — the event path changed simulated timestamps",
				workers, got, solverSmokeFingerprint)
		}
	}
}
