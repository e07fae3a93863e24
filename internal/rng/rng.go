// Package rng provides the deterministic pseudo-random numbers every
// stochastic component of the simulator draws from.
//
// All simulation randomness flows through this package so that any
// experiment is exactly reproducible from its seed. There are two
// generators, both implemented here to keep the module dependency-free
// and the values identical across Go releases (unlike math/rand's
// unspecified source):
//
//   - At, a keyed generator: a draw is a pure function of its key
//     (seed, stream, entity, n), in the style of the counter-based
//     generators of Salmon et al., "Parallel Random Numbers: As Easy as
//     1, 2, 3" (SC'11). It has no state, so nothing about it is
//     checkpointed and draws may be made in any order. The cycle kernel
//     draws only from it.
//   - Source, a xoshiro256** stream (Blackman & Vigna) seeded through
//     splitmix64, for the generators that run ahead of the kernel:
//     traffic and trace generation, random fault timelines.
package rng

import "math"

// Streams name the families of keyed draws, so that two purposes drawing
// under one seed never share a key.
const (
	// Jitter is the injector's retransmission jitter: the entity is the
	// (node, channel) pair, n the cycle the gap is drawn.
	Jitter uint64 = iota + 1
	// CorruptHit decides whether the flit crossing a link is corrupted:
	// the entity is the link, n the arrival cycle.
	CorruptHit
	// CorruptBit picks the bit a corruption flips, under the same key.
	CorruptBit
	// BurstLeave decides whether a link's Gilbert-Elliott chain changes
	// state on a traversal, under the same key.
	BurstLeave
	// HazardFail is a hazard entity's thinning draw: n is the evaluation
	// cycle.
	HazardFail
	// HazardRepair is the repair sojourn of an entity that failed at n.
	HazardRepair
)

const golden = 0x9e3779b97f4a7c15

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// split returns output i (from 0) of the splitmix64 sequence seeded with x.
func split(x, i uint64) uint64 { return mix(x + (i+1)*golden) }

// At returns the keyed draw for (seed, stream, entity, n): output n of
// the splitmix64 sequence seeded by output entity of the one seeded by
// output stream of the one seeded with seed. For a fixed (seed, stream,
// entity) the draws over n are one splitmix64 stream; different
// entities and streams get decorrelated seeds.
func At(seed, stream, entity, n uint64) uint64 {
	return split(split(split(seed, stream), entity), n)
}

// Float64 maps a draw to a uniform float64 in [0, 1) with 53 bits of
// precision.
func Float64(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Bernoulli maps a draw to true with probability p. Values of p outside
// [0,1] are clamped.
func Bernoulli(x uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return p >= 1 || Float64(x) < p
}

// Intn maps a draw to an integer in [0, n) by multiply-shift. Without a
// second draw to reject with, the bias is at most n/2^64. It panics if
// n <= 0.
func Intn(x uint64, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := mul64(x, uint64(n))
	return int(hi)
}

// Geometric maps a draw to a sample of the geometric distribution with
// success probability p: the number of failures before the first
// success. For p <= 0 it returns math.MaxInt32; for p >= 1 it returns 0.
func Geometric(x uint64, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	// Inverse transform; both logs are of values in (0,1].
	n := math.Floor(math.Log(1-Float64(x)) / math.Log(1-p))
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	return int(n)
}

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New. Source is not safe for concurrent use;
// each independent stochastic process owns one.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// the four words of state are well mixed even for small seeds (and,
// being four consecutive outputs of a bijection on distinct inputs, never
// all zero, which xoshiro must not start from).
func New(seed uint64) *Source {
	return &Source{split(seed, 0), split(seed, 1), split(seed, 2), split(seed, 3)}
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
func (r *Source) Float64() float64 { return Float64(r.Uint64()) }

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
