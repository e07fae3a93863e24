package obs

import (
	"fmt"

	"crnet/internal/snapshot"
)

// Checkpoint codec for the sampler. Its ring buffer is part of a
// service run's observable state: a kill-resume run must export the
// same time-series an unbroken run would, so it is captured exactly.
// The registry has no codec: its gauges are closures over live
// simulator state, which the restored network reproduces by
// construction.

// SaveState appends the sampler's ring buffer to a snapshot: cadence,
// capacity, raw ring slots, the next-eviction index and the wrap flag.
// The raw layout (not the chronological view)
// is stored so the restored sampler's future evictions happen at
// exactly the same points.
func (s *Sampler) SaveState(e *snapshot.Encoder) {
	e.Varint(s.every)
	e.Uvarint(uint64(cap(s.ring)))
	e.Uvarint(uint64(len(s.ring)))
	for i := range s.ring {
		sm := &s.ring[i]
		e.Varint(sm.Cycle)
		e.Uvarint(uint64(len(sm.Values)))
		for _, v := range sm.Values {
			e.F64(v)
		}
	}
	e.Int(s.next)
	e.Bool(s.full)
}

// LoadState restores a state written by SaveState. The sampler must
// have the same cadence and capacity as the snapshotted one; its ring
// contents are replaced.
func (s *Sampler) LoadState(d *snapshot.Decoder) error {
	every := d.Varint()
	// Capacity is a scalar (no elements follow it), so it must not go
	// through Count's remaining-bytes bound — a mostly-empty ring is
	// legitimately smaller than its capacity.
	ringCap := int(d.Uvarint())
	ringLen := d.Count(1 << 24)
	if err := d.Err(); err != nil {
		return err
	}
	if every != s.every || ringCap != cap(s.ring) {
		return fmt.Errorf("obs: snapshot sampler shape every=%d cap=%d, have every=%d cap=%d",
			every, ringCap, s.every, cap(s.ring))
	}
	if ringLen > ringCap {
		return fmt.Errorf("obs: snapshot sampler ring len %d exceeds cap %d", ringLen, ringCap)
	}
	ring := make([]Sample, ringLen)
	for i := range ring {
		cycle := d.Varint()
		nv := d.Count(1 << 20)
		if err := d.Err(); err != nil {
			return err
		}
		vals := make([]float64, nv)
		for j := range vals {
			vals[j] = d.F64()
		}
		ring[i] = Sample{Cycle: cycle, Values: vals}
	}
	next := d.Int()
	full := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if next < 0 || next >= ringCap {
		return fmt.Errorf("obs: snapshot sampler next index %d outside ring cap %d", next, ringCap)
	}
	s.ring = s.ring[:0]
	s.ring = append(s.ring, ring...)
	s.next = next
	s.full = full
	return nil
}
