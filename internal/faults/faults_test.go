package faults

import (
	"math"
	"math/bits"
	"testing"

	"crnet/internal/flit"
	"crnet/internal/rng"
)

func freshFlit() flit.Flit {
	fr := flit.Frame{Msg: flit.Message{ID: 1, Src: 0, Dst: 5, DataLen: 4}}
	return fr.FlitAt(1)
}

// flippedBit returns the one bit position (0-63 payload, 64-71 checksum)
// in which f differs from orig, or -1 if it differs in none or several.
func flippedBit(orig, f flit.Flit) int {
	pd, cd := orig.Payload^f.Payload, orig.Check^f.Check
	switch {
	case pd != 0 && cd == 0 && bits.OnesCount64(pd) == 1:
		return bits.TrailingZeros64(pd)
	case pd == 0 && bits.OnesCount8(cd) == 1:
		return 64 + bits.TrailingZeros8(cd)
	}
	return -1
}

// TestTransientRate: over 10^6 keys (link, cycle) the hit share is within
// 4 sigma of the rate, every hit flips exactly one bit, and the flipped
// bit is uniform over the 72 payload and checksum positions (chi-square
// with 71 degrees of freedom, below its 0.001 critical value of 113.6).
func TestTransientRate(t *testing.T) {
	const rate, links, cycles = 0.1, 1000, 1000
	var counts [72]int
	hits := 0
	for link := uint64(0); link < links; link++ {
		for now := int64(0); now < cycles; now++ {
			orig := freshFlit()
			f := orig
			if !Corrupt(&f, rate, 1, link, now) {
				if f != orig {
					t.Fatal("a miss changed the flit")
				}
				continue
			}
			hits++
			bit := flippedBit(orig, f)
			if bit < 0 {
				t.Fatalf("hit at (%d,%d) did not flip exactly one bit", link, now)
			}
			counts[bit]++
		}
	}
	const n = links * cycles
	if sigma := math.Sqrt(rate * (1 - rate) / n); math.Abs(float64(hits)/n-rate) > 4*sigma {
		t.Fatalf("hit share %v over %d keys, want %v ± %v", float64(hits)/n, n, rate, 4*sigma)
	}
	want := float64(hits) / 72
	chi := 0.0
	for _, c := range counts {
		chi += (float64(c) - want) * (float64(c) - want) / want
	}
	if chi > 113.6 {
		t.Fatalf("flipped bit not uniform: chi-square %.1f over 72 positions %v", chi, counts)
	}
}

func TestTransientCorruptionIsDetectable(t *testing.T) {
	for now := int64(0); now < 1000; now++ {
		f := freshFlit()
		if !Corrupt(&f, 1.0, 2, 7, now) {
			t.Fatal("rate-1.0 process did not corrupt")
		}
		if f.Verify() {
			t.Fatal("corrupted flit still verifies")
		}
	}
}

func TestTransientZeroRate(t *testing.T) {
	f := freshFlit()
	for now := int64(0); now < 1000; now++ {
		if Corrupt(&f, 0, 3, 1, now) || Corrupt(&f, -1, 3, 1, now) {
			t.Fatal("rate-0 process corrupted a flit")
		}
	}
	if !f.Verify() {
		t.Fatal("flit damaged by no-op processes")
	}
}

// TestCorruptionOrderFree: a key's verdict depends on the key alone. The
// same (link, cycle) keys drawn in shuffled order, with other keys drawn
// between them, give the same hits and bits, and each link's
// Gilbert-Elliott chain runs the same course however the links' draws
// interleave.
func TestCorruptionOrderFree(t *testing.T) {
	const links, cycles = 16, 400
	spec := BurstSpec{RateGood: 0.01, RateBad: 0.5, MeanGood: 20, MeanBad: 5}
	type verdict struct {
		f   flit.Flit
		hit bool
		bad bool
	}
	draw := func(order []int, noise bool) map[[2]int]verdict {
		out := map[[2]int]verdict{}
		bad := make([]bool, links)
		for _, k := range order {
			link, now := k%links, int64(k/links) // cycles ascend per link
			if noise {
				junk := freshFlit()
				Corrupt(&junk, 0.3, 4, uint64(links+k), now)
			}
			rate, after := spec.Traverse(bad[link], 4, uint64(link), now)
			bad[link] = after
			f := freshFlit()
			hit := Corrupt(&f, rate, 4, uint64(link), now)
			out[[2]int{link, int(now)}] = verdict{f, hit, after}
		}
		return out
	}
	inOrder := make([]int, links*cycles)
	for i := range inOrder {
		inOrder[i] = i
	}
	// Shuffle which link goes next while keeping each link's own
	// traversals in cycle order, as a network's links interleave.
	r := rng.New(0x0dd)
	shuffled := make([]int, 0, len(inOrder))
	next := make([]int, links)
	for len(shuffled) < len(inOrder) {
		link := r.Intn(links)
		if next[link] < cycles {
			shuffled = append(shuffled, next[link]*links+link)
			next[link]++
		}
	}
	want, got := draw(inOrder, false), draw(shuffled, true)
	hits, bad := 0, 0
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %v: %+v in order, %+v shuffled among other draws", k, v, got[k])
		}
		if v.hit {
			hits++
		}
		if v.bad {
			bad++
		}
	}
	if hits == 0 || bad == 0 {
		t.Fatalf("vacuous: %d hits, %d bad states", hits, bad)
	}
}

func TestScheduleOrderingAndPop(t *testing.T) {
	s := NewSchedule([]Event{
		{Cycle: 30, Link: LinkID{Node: 3, Port: 0}},
		{Cycle: 10, Link: LinkID{Node: 1, Port: 1}},
		{Cycle: 20, Link: LinkID{Node: 2, Port: 2}},
	})
	if s.Remaining() != 3 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	if evs := s.Pop(5); len(evs) != 0 {
		t.Fatalf("Pop(5) = %v", evs)
	}
	evs := s.Pop(20)
	if len(evs) != 2 || evs[0].Link.Node != 1 || evs[1].Link.Node != 2 {
		t.Fatalf("Pop(20) = %v", evs)
	}
	if evs := s.Pop(20); len(evs) != 0 {
		t.Fatalf("second Pop(20) = %v", evs)
	}
	if evs := s.Pop(100); len(evs) != 1 || evs[0].Cycle != 30 {
		t.Fatalf("Pop(100) = %v", evs)
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", s.Remaining())
	}
}

func TestNilSchedule(t *testing.T) {
	var s *Schedule
	if s.Pop(100) != nil || s.Remaining() != 0 {
		t.Fatal("nil schedule not neutral")
	}
}

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

func TestRandomLinksDistinct(t *testing.T) {
	var candidates []LinkID
	for n := 0; n < 16; n++ {
		for p := 0; p < 4; p++ {
			candidates = append(candidates, LinkID{Node: n, Port: p})
		}
	}
	s := RandomLinks(candidates, 8, 50, 7)
	evs := s.Pop(50)
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8", len(evs))
	}
	seen := map[LinkID]bool{}
	for _, e := range evs {
		if e.Cycle != 50 {
			t.Fatalf("event at cycle %d, want 50", e.Cycle)
		}
		if seen[e.Link] {
			t.Fatalf("duplicate dead link %v", e.Link)
		}
		seen[e.Link] = true
	}
}

func TestRandomLinksDeterministic(t *testing.T) {
	candidates := []LinkID{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}}
	a := RandomLinks(candidates, 3, 1, 42).Pop(1)
	b := RandomLinks(candidates, 3, 1, 42).Pop(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestRandomLinksTooManyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed RandomLinks did not panic")
		}
	}()
	RandomLinks([]LinkID{{0, 0}}, 2, 0, 1)
}
