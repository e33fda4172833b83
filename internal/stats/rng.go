// Package stats provides the statistical substrate for the RPC
// characterization study: deterministic random number generation,
// log-bucketed histograms, exact-quantile sample sets, heavy-tailed
// distribution samplers, bottom-k sketches, and correlation measures.
//
// Everything in this package is deliberately deterministic: the fleet
// simulator must produce identical datasets for identical seeds so that
// experiments in EXPERIMENTS.md are reproducible bit-for-bit.
package stats

import "math"

// Mix64 is the SplitMix64 finalizer: a bijection of the 64-bit words
// whose every output bit depends on every input bit. It is the one mixer
// of the module: RNG seeding, BottomK keys from trace and span IDs, trace
// IDs, and the fault plane's per-call decisions all pass their own
// counters or identifiers through it.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmix64 advances the given state and returns the next value of the
// SplitMix64 sequence. It is used both as a seed deriver for child RNGs
// and as the core mixing function of RNG itself.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is splittable: Child derives an
// independent stream from a label, which lets the simulator give every
// machine, method, and workload source its own stream without any
// cross-contamination when components are added or reordered.
//
// RNG is not safe for concurrent use; give each goroutine its own child.
type RNG struct {
	s    [4]uint64
	seed uint64 // the original seed, so Child is stable under draws
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{seed: seed}
	state := seed
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Child derives an independent generator from this generator's seed space
// and the given label. Calling Child with the same label always yields the
// same stream, regardless of how many values have been drawn from r.
func (r *RNG) Child(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix with the parent's original seed (not its evolving state) so the
	// derived stream does not depend on how many values the parent has
	// already drawn.
	state := r.seed ^ rotl(h, 23)
	return NewRNG(splitmix64(&state))
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
