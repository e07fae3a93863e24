package core

import (
	"fmt"

	"crnet/internal/snapshot"
)

// Throttle is a deterministic admission gate: out of every den offers
// it admits exactly num, spread as evenly as the integer lattice allows
// (error-diffusion, the one-dimensional Bresenham rule). No randomness
// is involved, so two runs that offer the same sequence admit the same
// subset — the property the degradation controller needs to keep sweeps
// byte-reproducible while shedding load.
type Throttle struct {
	num, den int64
	acc      int64
}

// SetRate sets the admitted fraction to num/den. num is clamped into
// [0, den]; den <= 0 (or num == den) means admit everything. The
// accumulator is clamped into the new lattice so a rate change cannot
// manufacture a burst of admissions.
func (t *Throttle) SetRate(num, den int64) {
	if den <= 0 {
		num, den = 1, 1
	}
	if num < 0 {
		num = 0
	}
	if num > den {
		num = den
	}
	t.num, t.den = num, den
	if t.acc >= den {
		t.acc = den - 1
	}
}

// Allow consumes one offer and reports whether it is admitted.
func (t *Throttle) Allow() bool {
	if t.den <= 0 || t.num >= t.den {
		return true
	}
	t.acc += t.num
	if t.acc >= t.den {
		t.acc -= t.den
		return true
	}
	return false
}

// SaveState serializes the throttle (rate and accumulator).
func (t *Throttle) SaveState(e *snapshot.Encoder) {
	e.Varint(t.num)
	e.Varint(t.den)
	e.Varint(t.acc)
}

// LoadState restores a state saved by SaveState. The decoded triple is
// range-checked against the invariants SetRate/Allow maintain — den
// non-negative, num in [0, den], acc in [0, den) when den > 0, and all
// zero when never configured — so a corrupt or hand-crafted snapshot
// cannot silently skew admissions (an out-of-range accumulator would
// bias every Allow decision until it happened to re-enter the lattice).
func (t *Throttle) LoadState(d *snapshot.Decoder) error {
	num := d.Varint()
	den := d.Varint()
	acc := d.Varint()
	if err := d.Err(); err != nil {
		return err
	}
	valid := (num == 0 && den == 0 && acc == 0) ||
		(den > 0 && num >= 0 && num <= den && acc >= 0 && acc < den)
	if !valid {
		return fmt.Errorf("core: throttle state num=%d den=%d acc=%d out of range", num, den, acc)
	}
	t.num, t.den, t.acc = num, den, acc
	return nil
}
