// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic subsystem in this repository.
//
// Reproducibility is a hard requirement: the paper's tables and figures must
// be regenerable bit-for-bit for a fixed seed. The generator is
// xoshiro256** seeded through SplitMix64, following the reference
// construction by Blackman and Vigna. Streams can be split by label
// (Derive), so independent subsystems (panel sampling, campaign delivery,
// bootstrap resampling, ...) consume independent, stable sub-streams: adding
// draws to one subsystem never perturbs another.
//
// Rand is NOT safe for concurrent use; derive one stream per goroutine.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** generator.
// The zero value is not usable; construct with New or Derive.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, which guarantees
// well-distributed internal state even for small or correlated seeds.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Derive returns a new independent generator whose seed is a stable function
// of the parent's seed material and the given label. Deriving the same label
// twice from generators in identical states yields identical streams.
func (r *Rand) Derive(label string) *Rand {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range r.s {
		putUint64(buf[:], s)
		h.Write(buf[:])
	}
	h.Write([]byte(label))
	return New(h.Sum64())
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's nearly-divisionless bounded generation.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64 avoids log(0).
	return -math.Log(1 - r.Float64())
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
