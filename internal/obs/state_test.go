package obs

import (
	"strings"
	"testing"

	"crnet/internal/snapshot"
)

// TestSamplerLoadStateRejectsCorruptSnapshots is the regression table
// for the sampler codec's validation: shape mismatches (cadence or ring
// capacity), a ring section longer than the capacity it claims, an
// eviction cursor outside the ring, and damaged payloads must all be
// refused before the ring is touched.
func TestSamplerLoadStateRejectsCorruptSnapshots(t *testing.T) {
	build := func(every int64, capacity int) *Sampler {
		reg := NewRegistry()
		reg.Gauge("c", func() float64 { return 1 << 40 })
		s := NewSampler(reg, every, capacity)
		for c := int64(1); c <= 10; c++ {
			s.Tick(c)
		}
		return s
	}
	save := func(s *Sampler) []byte {
		var e snapshot.Encoder
		s.SaveState(&e)
		return e.Bytes()
	}
	// Sanity: an unmodified snapshot restores cleanly.
	if err := build(4, 4).LoadState(snapshot.NewDecoder(save(build(4, 4)))); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	cases := []struct {
		name, wantSub string
		build         func(t *testing.T) []byte
	}{
		{"cadence-mismatch", "sampler shape", func(t *testing.T) []byte {
			return save(build(8, 4))
		}},
		{"capacity-mismatch", "sampler shape", func(t *testing.T) []byte {
			return save(build(4, 2))
		}},
		{"ring-len-over-cap", "exceeds cap", func(t *testing.T) []byte {
			var e snapshot.Encoder
			e.Varint(4)  // matching cadence
			e.Uvarint(4) // matching capacity
			e.Uvarint(5) // ring longer than its own capacity
			for i := 0; i < 8; i++ {
				e.U8(0) // filler so the length passes Count's remaining-bytes bound
			}
			return e.Bytes()
		}},
		{"next-out-of-range", "next index", func(t *testing.T) []byte {
			var e snapshot.Encoder
			e.Varint(4)  // matching cadence
			e.Uvarint(4) // matching capacity
			e.Uvarint(0) // empty ring
			e.Int(9)     // eviction cursor outside the ring
			e.Bool(false)
			return e.Bytes()
		}},
		{"truncated", "truncated", func(t *testing.T) []byte {
			raw := save(build(4, 4))
			return raw[:len(raw)/2]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build(4, 4).LoadState(snapshot.NewDecoder(tc.build(t)))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
