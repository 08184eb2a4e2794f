package core

import "testing"

func TestDeriveDistinctLabels(t *testing.T) {
	seen := make(map[uint64]string)
	labels := []string{"", "a", "b", "ab", "ba", "job-000", "job-001", "fig8/size=64KiB/smpi"}
	for _, l := range labels {
		v := NewRNG(DeriveSeed(1, l)).Uint64()
		if prev, dup := seen[v]; dup {
			t.Errorf("labels %q and %q collide", prev, l)
		}
		seen[v] = l
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	// One-bit seed changes and one-character label changes must both move
	// the derived seed.
	if DeriveSeed(0, "job") == DeriveSeed(1, "job") {
		t.Error("seed bit flip did not change derived seed")
	}
	if DeriveSeed(42, "job-000") == DeriveSeed(42, "job-001") {
		t.Error("label change did not change derived seed")
	}
}
