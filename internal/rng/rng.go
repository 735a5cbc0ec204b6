// Package rng provides a small deterministic random number generator and
// the distributions the simulators need. Monte-Carlo experiments must be
// reproducible bit-for-bit across runs and machines, so the package uses
// an explicitly seeded xoshiro256** generator (seeded through splitmix64)
// instead of math/rand's global, version-dependent source.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudorandom generator.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// a well-mixed, nonzero internal state for any seed (including 0).
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Split derives an independent child generator from the parent's stream.
// Parent and child may be used concurrently from different goroutines
// (after the split) without sharing state; simulations split one root
// seed per workstation / per replication.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly 0 —
// convenient for inverse-transform sampling through logarithms.
func (r *Source) Float64Open() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection keeps the distribution exact.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Exponential returns a draw from the exponential distribution with the
// given rate (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Weibull returns a draw with the given shape and scale parameters
// (survival exp(-(t/scale)^shape)). It panics unless both are positive.
func (r *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.Float64Open()), 1/shape)
}

// LogNormal returns exp(N(mu, sigma)). It panics if sigma < 0.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("rng: LogNormal with negative sigma")
	}
	return math.Exp(mu + sigma*r.Normal())
}

// Normal returns a standard normal draw via the Box–Muller transform.
func (r *Source) Normal() float64 {
	u := r.Float64Open()
	v := r.Float64Open()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
