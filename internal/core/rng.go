package core

// RNG is a deterministic SplitMix64 pseudo-random generator. Every source of
// randomness in the simulator flows through a seeded RNG so that runs are
// reproducible; the standard library's global rand is never used.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Float64 returns a uniform value in [0, 1). The division compiles to an
// exact multiply by 2^-53; the conversion keeps it out of a caller's fused
// multiply-add, which would change no value but would trip
// internal/archtest's TestNoFusedMultiplyAdd.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("core: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Split derives an independent child generator, useful to give each
// simulated rank its own stream without cross-rank coupling.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// DeriveSeed mixes a seed with a label into a well-distributed child seed.
// It hashes the label FNV-1a style into the seed and passes the result
// through the SplitMix64 finalizer twice, so labels differing in one bit
// (or one character) yield decorrelated streams.
func DeriveSeed(seed uint64, label string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	return mix64(mix64(h + 0x9e3779b97f4a7c15))
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
