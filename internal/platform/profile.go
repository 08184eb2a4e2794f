package platform

import (
	"fmt"
	"math"
)

// Heterogeneity profiles are optional multiplier slices on the spec types:
// empty means a homogeneous machine (the default, bit-identical to builds
// before profiles existed), non-empty scales a builder parameter per
// structural unit (cabinet, tree level, torus dimension, dragonfly group).
// Multipliers apply at Build time only — the spec keeps the nominal value,
// so XML round-trips and dynamics restore events stay anchored to it.

// CheckProfile validates a multiplier profile: every entry must be positive
// and finite. want >= 0 additionally requires a non-empty profile to have
// exactly want entries; want < 0 accepts any length (cyclic profiles).
// An empty profile is always valid — it means "homogeneous".
func CheckProfile(vs []float64, want int) error {
	if len(vs) == 0 {
		return nil
	}
	if want >= 0 && len(vs) != want {
		return fmt.Errorf("%d entries, want %d", len(vs), want)
	}
	for i, v := range vs {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("entry %d is %v, want positive and finite", i, v)
		}
	}
	return nil
}

// ProfileAt reads a cyclic profile: entry i%len, or 1 when the profile is
// empty. Only valid after CheckProfile.
func ProfileAt(vs []float64, i int) float64 {
	if len(vs) == 0 {
		return 1
	}
	return vs[i%len(vs)]
}
