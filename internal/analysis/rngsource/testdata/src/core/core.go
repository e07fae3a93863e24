// Package core is an rngsource fixture: its directory maps to
// crnet/internal/core, where randomness must flow through
// crnet/internal/rng with derived seeds.
package core

import (
	"math/rand"           // want `math/rand imported in simulation-core`
	randv2 "math/rand/v2" // want `math/rand/v2 imported in simulation-core`

	"crnet/internal/rng"
)

// LegacyJitter uses the banned generator (its stream is unspecified
// across Go releases).
func LegacyJitter() int {
	return rand.Intn(8) + int(randv2.Uint64()%8)
}

// AdHoc seeds a stream with a literal, hiding it from the harness's
// per-point seed derivation.
func AdHoc() uint64 {
	r := rng.New(42) // want `rng\.New with constant seed 42`
	return r.Uint64()
}

// Derived takes its seed from configuration: this is the sanctioned
// shape (the caller derives seed via harness.PointSeed).
func Derived(seed uint64) uint64 {
	return rng.New(seed).Uint64()
}

// Keyed draws under a literal seed share every key with any other
// component that picked the same literal; constants anywhere in the
// seed argument are flagged.
func Keyed(node uint64, now int64) uint64 {
	return rng.At(7*11, rng.Jitter, node, uint64(now)) // want `rng\.At with constant seed 7 \* 11`
}

// KeyedDerived takes its seed from configuration; the constant stream,
// entity and counter are the key, not a seed.
func KeyedDerived(seed uint64) uint64 {
	return rng.At(seed, rng.CorruptHit, 0, 1)
}

// Golden uses a justified fixed stream.
func Golden() uint64 {
	r := rng.New(0xcafe) //cr:randsource golden-vector stream pinned by spec, not part of any sweep
	return r.Uint64()
}

// Unjustified carries the annotation without a reason.
func Unjustified() uint64 {
	//cr:randsource
	r := rng.New(1) // want `needs a justification`
	return r.Uint64()
}
