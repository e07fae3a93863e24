// Package rng provides a small, deterministic pseudo-random number
// generator used by every stochastic component of the simulator.
//
// All simulation randomness flows through this package so that any
// experiment is exactly reproducible from its seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64; both are
// implemented here to keep the module dependency-free and to make the
// stream identical across Go releases (unlike math/rand's unspecified
// source).
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New. Source is not safe for concurrent use;
// the simulator owns one Source per independent stochastic process.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// the four words of state are well mixed even for small seeds.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator to the stream determined by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// State returns the generator's four xoshiro256** state words, for
// checkpointing. Restoring them with SetState resumes the stream at
// exactly the next value.
func (r *Source) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState installs a state previously captured with State. The
// all-zero state is invalid for xoshiro and is rejected with a panic
// (it can only arise from a corrupted or hand-rolled snapshot; the
// checkpoint container's checksum makes silent corruption unreachable).
func (r *Source) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("rng: SetState with all-zero state")
	}
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split returns a new Source whose stream is independent of r's for all
// practical purposes. It is used to give each node or process its own
// stream so that changing one component's consumption pattern does not
// perturb another's.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += t>>32 + aHi*bHi
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values of p outside [0,1]
// are clamped.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. For
// p <= 0 it returns a very large value; for p >= 1 it returns 0.
func (r *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	u := r.Float64()
	// Inverse transform; both logs are of values in (0,1).
	n := math.Floor(math.Log(1-u) / math.Log(1-p))
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	return int(n)
}

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
