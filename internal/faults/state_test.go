package faults

import (
	"testing"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
)

func TestScheduleCursor(t *testing.T) {
	s := NewSchedule([]Event{
		{Cycle: 10, Link: LinkID{Node: 1, Port: 0}},
		{Cycle: 20, Link: LinkID{Node: 2, Port: 1}},
		{Cycle: 30, Link: LinkID{Node: 3, Port: 2}, Up: true},
	})
	s.Pop(15)
	if got := s.Cursor(); got != 1 {
		t.Fatalf("cursor after Pop(15) = %d, want 1", got)
	}
	if err := s.SetCursor(3); err != nil {
		t.Fatal(err)
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining after SetCursor(3) = %d", s.Remaining())
	}
	if err := s.SetCursor(4); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}
	if err := s.SetCursor(0); err != nil || s.Remaining() != 3 {
		t.Fatalf("SetCursor(0) did not restore the full timeline: %v", err)
	}

	var nilSched *Schedule
	if nilSched.Cursor() != 0 {
		t.Fatal("nil schedule cursor != 0")
	}
	if err := nilSched.SetCursor(0); err != nil {
		t.Fatal(err)
	}
	if err := nilSched.SetCursor(1); err == nil {
		t.Fatal("nil schedule accepted a non-zero cursor")
	}
}

// corrupterStream advances a corrupter n traversals and returns the
// corruption decisions plus resulting payloads.
func corrupterStream(c Corrupter, n int) []uint64 {
	out := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		f := flit.Flit{Payload: 0x1234_5678_9abc_def0}
		hit := c.Apply(&f)
		v := f.Payload
		if hit {
			v |= 1 << 63 // fold the decision in (payload bit 63 may flip too, fine for comparison)
		}
		out = append(out, v, uint64(c.Injected()))
	}
	return out
}

func TestCorrupterStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() Corrupter
	}{
		{"transient", func() Corrupter { return NewTransient(0.2, 99) }},
		{"gilbert", func() Corrupter {
			return NewGilbertElliott(BurstSpec{RateGood: 0.01, RateBad: 0.5, MeanGood: 20, MeanBad: 5}, 99)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.make()
			corrupterStream(ref, 500) // advance past the initial state

			var e snapshot.Encoder
			ref.SaveState(&e)
			want := corrupterStream(ref, 500)

			clone := tc.make()
			d := snapshot.NewDecoder(e.Bytes())
			if err := clone.LoadState(d); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			got := corrupterStream(clone, 500)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stream diverged at %d: got %#x, want %#x", i, got[i], want[i])
				}
			}
		})
	}
}
