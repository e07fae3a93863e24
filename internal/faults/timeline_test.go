package faults

import (
	"math"
	"testing"
)

// --- Gilbert-Elliott -------------------------------------------------

// TestGilbertElliottStationaryRate runs four links' chains for 10^6
// traversals each: the bad-state share matches MeanBad/(MeanGood+MeanBad),
// the mean bad run matches MeanBad, and the hit share matches
// StationaryRate, each within 10% (several sigma at this length).
func TestGilbertElliottStationaryRate(t *testing.T) {
	spec := EqualRateBurst(1e-2, 900, 100)
	if got := spec.StationaryRate(); math.Abs(got-1e-2) > 1e-12 {
		t.Fatalf("StationaryRate = %v, want 1e-2", got)
	}
	const links, trials = 4, 1000000
	var badTraversals, badRuns, hits int
	for link := uint64(0); link < links; link++ {
		bad := false
		for now := int64(0); now < trials; now++ {
			if bad {
				badTraversals++
			}
			rate, after := spec.Traverse(bad, 11, link, now)
			if after && !bad {
				badRuns++
			}
			bad = after
			f := freshFlit()
			if Corrupt(&f, rate, 11, link, now) {
				hits++
				if f.Verify() {
					t.Fatal("corrupted flit still verifies")
				}
			}
		}
	}
	within := func(what string, got, want float64) {
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s = %v, want %v (±10%%)", what, got, want)
		}
	}
	const n = links * trials
	within("bad-state share", float64(badTraversals)/n, spec.MeanBad/(spec.MeanGood+spec.MeanBad))
	within("mean bad run", float64(badTraversals)/float64(badRuns), spec.MeanBad)
	within("hit share", float64(hits)/n, spec.StationaryRate())
}

func TestGilbertElliottBursty(t *testing.T) {
	// With a clean good state, every corruption lands inside a bad
	// episode: consecutive hits should cluster far more tightly than an
	// i.i.d. process at the same average rate would allow.
	spec := EqualRateBurst(1e-3, 990, 10)
	const trials = 300000
	var hitAt []int
	bad := false
	for i := 0; i < trials; i++ {
		var rate float64
		rate, bad = spec.Traverse(bad, 5, 3, int64(i))
		f := freshFlit()
		if Corrupt(&f, rate, 5, 3, int64(i)) {
			hitAt = append(hitAt, i)
		}
	}
	if len(hitAt) < 20 {
		t.Fatalf("only %d corruptions in %d trials", len(hitAt), trials)
	}
	short := 0
	for i := 1; i < len(hitAt); i++ {
		if hitAt[i]-hitAt[i-1] <= 20 {
			short++
		}
	}
	frac := float64(short) / float64(len(hitAt)-1)
	// i.i.d. at rate 1e-3 would give P(gap<=20) ~ 2%; the bursty process
	// concentrates hits inside mean-10 bad episodes at rate 0.1.
	if frac < 0.2 {
		t.Fatalf("only %.0f%% of inter-corruption gaps <= 20 cycles; process not bursty", frac*100)
	}
}

func TestBurstSpecValidate(t *testing.T) {
	if err := (BurstSpec{RateGood: -0.1, RateBad: 0, MeanGood: 10, MeanBad: 10}).Validate(); err == nil {
		t.Fatal("negative rate validated")
	}
	if err := (BurstSpec{RateGood: 0, RateBad: 0.5, MeanGood: 0.5, MeanBad: 10}).Validate(); err == nil {
		t.Fatal("sub-cycle sojourn validated")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EqualRateBurst with rate concentrating past 1 did not panic")
		}
	}()
	EqualRateBurst(0.5, 99, 1) // bad-state rate would be 50
}

// --- Schedule edge cases ---------------------------------------------

func TestScheduleDuplicateLinksKept(t *testing.T) {
	l := LinkID{Node: 2, Port: 1}
	s := NewSchedule([]Event{
		{Cycle: 10, Link: l},
		{Cycle: 10, Link: l},
	})
	// The schedule is a plain timeline: deduplication is the network's
	// job (via refcounting), so both events must survive.
	if evs := s.Pop(10); len(evs) != 2 {
		t.Fatalf("duplicate link events collapsed: %v", evs)
	}
}

func TestScheduleSameCycleFailRepairOrder(t *testing.T) {
	l := LinkID{Node: 0, Port: 0}
	s := NewSchedule([]Event{
		{Cycle: 5, Link: l, Up: false},
		{Cycle: 5, Link: l, Up: true},
		{Cycle: 5, Kind: NodeEvent, Node: 3, Up: true},
	})
	evs := s.Pop(5)
	if len(evs) != 3 {
		t.Fatalf("Pop(5) = %v", evs)
	}
	// Stable sort: same-cycle events apply in the order given, so the
	// fail-then-repair pair nets to "up".
	if evs[0].Up || !evs[1].Up {
		t.Fatalf("same-cycle order not preserved: %v", evs)
	}
	if evs[2].Kind != NodeEvent || evs[2].Node != 3 {
		t.Fatalf("node event reordered: %v", evs)
	}
}

func TestSchedulePopEmptyAndExhausted(t *testing.T) {
	empty := NewSchedule(nil)
	if evs := empty.Pop(1 << 40); len(evs) != 0 {
		t.Fatalf("empty schedule popped %v", evs)
	}
	if empty.Remaining() != 0 {
		t.Fatalf("empty Remaining = %d", empty.Remaining())
	}
	s := NewSchedule([]Event{{Cycle: 1, Link: LinkID{0, 0}}})
	s.Pop(1)
	for i := 0; i < 3; i++ {
		if evs := s.Pop(100 + int64(i)); len(evs) != 0 {
			t.Fatalf("exhausted schedule popped %v", evs)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("exhausted Remaining = %d", s.Remaining())
	}
}

func TestScheduleEventsAccessorIsCopy(t *testing.T) {
	s := NewSchedule([]Event{{Cycle: 3, Link: LinkID{1, 1}}})
	evs := s.Events()
	evs[0].Cycle = 99
	if got := s.Events()[0].Cycle; got != 3 {
		t.Fatalf("Events() leaked internal storage: cycle %d", got)
	}
}

// --- Random timeline -------------------------------------------------

func TestRandomTimelineDeterministicAndPaired(t *testing.T) {
	cfg := TimelineConfig{
		Links:    []LinkID{{0, 0}, {0, 1}, {1, 0}, {2, 3}},
		Nodes:    []int{5, 6},
		LinkMTBF: 200, LinkMTTR: 20,
		NodeMTBF: 500, NodeMTTR: 30,
		Start: 100, Horizon: 5000, Seed: 77,
	}
	a := RandomTimeline(cfg).Events()
	b := RandomTimeline(cfg).Events()
	if len(a) == 0 {
		t.Fatal("timeline generated no events")
	}
	if len(a) != len(b) {
		t.Fatalf("same config gave %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Every failure must have a matching later repair of the same
	// entity, and failures stay inside [Start, Horizon).
	type entity struct {
		kind EventKind
		link LinkID
		node int
	}
	down := map[entity]int{}
	fails := 0
	for _, e := range a {
		k := entity{e.Kind, e.Link, e.Node}
		if e.Kind == NodeEvent {
			k.link = LinkID{}
		} else {
			k.node = 0
		}
		if e.Up {
			if down[k] == 0 {
				t.Fatalf("repair without prior failure: %v", e)
			}
			down[k]--
		} else {
			fails++
			if e.Cycle < cfg.Start || e.Cycle >= cfg.Horizon {
				t.Fatalf("failure outside [start,horizon): %v", e)
			}
			down[k]++
		}
	}
	for k, n := range down {
		if n != 0 {
			t.Fatalf("entity %v left with %d unrepaired failures", k, n)
		}
	}
	if fails == 0 {
		t.Fatal("no failures generated")
	}
}

func TestRandomTimelineSeedsDecorrelated(t *testing.T) {
	cfg := TimelineConfig{
		Links:    []LinkID{{0, 0}},
		LinkMTBF: 100, LinkMTTR: 10,
		Start: 0, Horizon: 4000, Seed: 1,
	}
	a := RandomTimeline(cfg).Events()
	cfg.Seed = 2
	b := RandomTimeline(cfg).Events()
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("adjacent seeds produced identical timelines")
	}
}

func TestRandomTimelineBadHorizonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("horizon <= start did not panic")
		}
	}()
	RandomTimeline(TimelineConfig{Start: 10, Horizon: 10})
}
