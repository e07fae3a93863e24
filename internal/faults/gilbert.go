package faults

import (
	"fmt"

	"crnet/internal/rng"
)

// BurstSpec parameterizes a Gilbert-Elliott two-state bursty corruption
// process: each link runs its own chain, alternating between a good and
// a bad state with geometrically distributed sojourn times (counted in
// traversals of that link), and corrupts each traversing flit with the
// current state's rate. Real transient failure processes (crosstalk
// episodes, marginal drivers, particle strikes near a link) cluster in
// time; this model reproduces that clustering while keeping a
// closed-form average rate for equal-rate comparisons against the i.i.d.
// Bernoulli process (experiment E22).
//
// BurstSpec is immutable configuration and safe to share across
// simulation points; the network keeps each link's state bit.
type BurstSpec struct {
	// RateGood and RateBad are the per-traversal corruption
	// probabilities in each state.
	RateGood, RateBad float64
	// MeanGood and MeanBad are the expected state sojourn times, in
	// flit traversals. Both must be >= 1.
	MeanGood, MeanBad float64
}

// Validate reports a descriptive error for out-of-range parameters.
func (s BurstSpec) Validate() error {
	if s.RateGood < 0 || s.RateGood > 1 || s.RateBad < 0 || s.RateBad > 1 {
		return fmt.Errorf("faults: burst rates (%v, %v) outside [0,1]", s.RateGood, s.RateBad)
	}
	if s.MeanGood < 1 || s.MeanBad < 1 {
		return fmt.Errorf("faults: burst sojourns (%v, %v) must be >= 1 traversal", s.MeanGood, s.MeanBad)
	}
	return nil
}

// StationaryRate returns the long-run average corruption probability per
// traversal: the sojourn-weighted mix of the two state rates. Use it to
// build a bursty process with the same average rate as a Bernoulli one.
func (s BurstSpec) StationaryRate() float64 {
	return (s.MeanGood*s.RateGood + s.MeanBad*s.RateBad) / (s.MeanGood + s.MeanBad)
}

// EqualRateBurst returns a spec whose stationary rate equals rate but
// whose corruptions arrive in bursts: the channel is clean in the good
// state and corrupts at the concentrated rate while a bad episode of
// mean length meanBad (out of a meanGood+meanBad cycle) lasts. It panics
// if the concentration pushes the bad-state rate past 1.
func EqualRateBurst(rate, meanGood, meanBad float64) BurstSpec {
	s := BurstSpec{
		RateGood: 0,
		RateBad:  rate * (meanGood + meanBad) / meanBad,
		MeanGood: meanGood,
		MeanBad:  meanBad,
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Traverse advances a link's chain by one traversal at cycle now, from
// state bad: it returns the corruption rate of this traversal (the
// pre-transition state's, for Corrupt) and the state after it. The
// chain leaves its state with probability 1/MeanState, a keyed draw
// (rng.BurstLeave) on (seed, link, now), so sojourns are geometric in
// traversals of that link and the link's bit is the chain's only state.
func (s BurstSpec) Traverse(bad bool, seed, link uint64, now int64) (rate float64, after bool) {
	rate, leave := s.RateGood, 1/s.MeanGood
	if bad {
		rate, leave = s.RateBad, 1/s.MeanBad
	}
	return rate, bad != rng.Bernoulli(rng.At(seed, rng.BurstLeave, link, uint64(now)), leave)
}
