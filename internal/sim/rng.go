package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random source
// (xoshiro256**). Every stochastic element of the simulation draws from an
// explicitly seeded RNG so runs are reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value via SplitMix64, so
// even small or similar seeds produce well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 random bits.
//
//lightpc:zeroalloc
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

//lightpc:zeroalloc
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
//
//lightpc:zeroalloc
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics when n == 0.
//
//lightpc:zeroalloc
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
//
//lightpc:zeroalloc
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
//
//lightpc:zeroalloc
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a normally distributed value with the given mean and standard
// deviation (Box–Muller, one value per call for simplicity).
//
//lightpc:zeroalloc
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// SubSeed derives a decorrelated child seed from a parent seed and a label
// (SplitMix-style: FNV-1a over the label folded into the parent, then the
// SplitMix64 finalizer). It is a pure function — the same (seed, label)
// always yields the same child — which is what lets experiment cells be
// seeded by their canonical label and stay byte-identical no matter which
// worker runs them, or in what order.
func SubSeed(seed uint64, label string) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	z := seed ^ h ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream named by label without
// consuming any of the parent's output: the parent state is untouched, so
// interleaving Split calls with draws — or reordering Split calls — never
// changes what either stream produces. Distinct labels yield decorrelated
// streams; the same label always yields the same stream.
func (r *RNG) Split(label string) *RNG {
	return NewRNG(SubSeed(r.s[0]^rotl(r.s[2], 19), label))
}
