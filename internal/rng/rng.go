// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the reproduction. Every experiment in the paper
// harness derives its randomness from a single seed through named splits, so
// any table or figure can be regenerated bit-for-bit.
//
// The core generator is xoshiro256**, seeded via SplitMix64, following the
// reference implementations by Blackman and Vigna. It is not cryptographically
// secure; it is fast, well distributed, and reproducible, which is what a
// measurement harness needs.
package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic random number generator. The zero value is not
// usable; construct with New or Split.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that nearby seeds produce unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not be seeded with all zeros; SplitMix64 of any
	// seed cannot produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from the current one and a name.
// The parent state is not consumed: splitting with the same name twice yields
// the same child, which makes experiment sub-streams addressable.
func (r *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.s[0] ^ r.s[2] ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias is
	// negligible for the n values used here but we still reject to be exact.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63 returns a non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		// The conversions forbid a fused multiply-add, which would round
		// once instead of twice and give other draws on arm64.
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	return r.SampleInto(make([]int, n), n, n)
}

// Shuffle randomly reorders n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Exponential returns an exponential variate with the given rate.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Choice returns a uniformly random index weighted by the non-negative
// weights. It panics if weights is empty or sums to zero.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total == 0 || len(weights) == 0 {
		panic("rng: Choice with zero total weight")
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	return r.SampleInto(make([]int, n), n, k)
}

// SampleInto is Sample in buf's storage. It shuffles all n indices
// (Fisher-Yates, the draws Perm makes) and returns the first k, in buf[:k]
// when cap(buf) >= n and in a new slice of capacity n otherwise. It panics
// if k > n.
func (r *RNG) SampleInto(buf []int, n, k int) []int {
	if k > n {
		panic("rng: Sample with k > n")
	}
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}
