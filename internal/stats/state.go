package stats

import (
	"fmt"

	"crnet/internal/snapshot"
)

// Checkpoint codecs: a long-running service accumulates latency into
// Welford/Histogram estimators, so resuming a run byte-identically
// requires restoring their exact internal state (float bit patterns
// included — F64 round-trips IEEE-754 bits, not decimal renderings).

// SaveState appends the estimator's state to a snapshot.
func (w *Welford) SaveState(e *snapshot.Encoder) {
	e.Varint(w.n)
	e.F64(w.mean)
	e.F64(w.m2)
	e.F64(w.min)
	e.F64(w.max)
}

// LoadState restores a state written by SaveState.
func (w *Welford) LoadState(d *snapshot.Decoder) error {
	n := d.Varint()
	mean, m2 := d.F64(), d.F64()
	min, max := d.F64(), d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	w.n, w.mean, w.m2, w.min, w.max = n, mean, m2, min, max
	return nil
}

// SaveState appends the histogram's state to a snapshot. The shape
// (bucket width and count) is included and validated on load: merging
// counts into a differently shaped histogram would silently corrupt
// percentiles.
func (h *Histogram) SaveState(e *snapshot.Encoder) {
	e.Varint(h.width)
	e.Uvarint(uint64(len(h.buckets)))
	for _, b := range h.buckets {
		e.Varint(b)
	}
	e.Varint(h.total)
	e.Varint(h.sum)
	e.Varint(h.maxSeen)
	e.Varint(h.clamped)
}

// LoadState restores a state written by SaveState into a histogram of
// the same shape.
func (h *Histogram) LoadState(d *snapshot.Decoder) error {
	width := d.Varint()
	n := d.Count(1 << 24)
	if err := d.Err(); err != nil {
		return err
	}
	if width != h.width || n != len(h.buckets) {
		return fmt.Errorf("stats: snapshot histogram shape width=%d buckets=%d, have width=%d buckets=%d",
			width, n, h.width, len(h.buckets))
	}
	buckets := make([]int64, n)
	for i := range buckets {
		buckets[i] = d.Varint()
	}
	total, sum, maxSeen, clamped := d.Varint(), d.Varint(), d.Varint(), d.Varint()
	if err := d.Err(); err != nil {
		return err
	}
	copy(h.buckets, buckets)
	h.total, h.sum, h.maxSeen, h.clamped = total, sum, maxSeen, clamped
	return nil
}
