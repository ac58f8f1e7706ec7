// Package rng provides deterministic pseudo-random number generation for
// all simulation components. Every experiment in this repository is driven
// by an explicit seed so results are exactly reproducible run to run.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as its
// authors recommend. The package also provides the samplers the simulators
// need: bounded integers without modulo bias, Zipf-distributed ranks,
// Bernoulli trials, and Fisher-Yates shuffles.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x by the SplitMix64 step and returns the next output.
// It is used only to expand a single seed word into the xoshiro state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// independent streams with overwhelming probability.
func New(seed uint64) *Source {
	var s Source
	x := seed
	for i := range s.s {
		s.s[i] = splitMix64(&x)
	}
	// xoshiro256** must not start from the all-zero state; SplitMix64 can
	// only produce it with negligible probability, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork derives a new independent Source from this one. Forking is used to
// give each simulation component (workload, leveler, device) its own stream
// so that adding draws in one component does not perturb another.
func (r *Source) Fork() *Source {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// SeedStream derives the seed of substream `stream` from a base seed by
// two SplitMix64 steps. The derivation depends only on (base, stream), so a
// sweep job indexed i always sees the same seed no matter how many workers
// execute the sweep or in what order — the reproducibility rule the
// experiment engine (internal/exec) is built on.
func SeedStream(base, stream uint64) uint64 {
	x := base
	h := splitMix64(&x)
	x = h ^ (stream * 0xd1342543de82ef95)
	return splitMix64(&x)
}
