package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"crnet/internal/snapshot"
)

func testHazard(spec HazardSpec) *Hazard {
	links := []LinkID{{Node: 0, Port: 0}, {Node: 0, Port: 1}, {Node: 1, Port: 0}, {Node: 1, Port: 1}}
	nodes := []int{0, 1}
	return NewHazard(spec, links, nodes)
}

func driveHazard(h *Hazard, cycles int64, linkLoad int64, nodeLoad float64) []Event {
	flits := make([]int64, 4)
	loads := []float64{nodeLoad, nodeLoad}
	var out []Event
	for c := int64(1); c <= cycles; c++ {
		for i := range flits {
			flits[i] += linkLoad
		}
		out = append(out, h.Evaluate(c, flits, loads)...)
	}
	return out
}

func TestHazardDeterministic(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 2e-4, NodeLambda0: 1e-4, Alpha: 4, LinkMTTR: 100, NodeMTTR: 100, EvalEvery: 32, Seed: 7}
	a := driveHazard(testHazard(spec), 20000, 1, 0.5)
	b := driveHazard(testHazard(spec), 20000, 1, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec and load history produced different event streams")
	}
	if len(a) == 0 {
		t.Fatalf("aggressive spec produced no events over 20000 cycles")
	}
}

// TestHazardFailureRate: an up entity fails in an evaluation window with
// probability -expm1(-lambda*dt), lambda = lambda0*exp(alpha*load). Over
// ~400 000 entity-windows the failure share is within 4 sigma of it.
func TestHazardFailureRate(t *testing.T) {
	const entities, windows, every = 200, 2000, 32
	spec := HazardSpec{LinkLambda0: 1e-3, Alpha: 2, LinkMTTR: 1, EvalEvery: every, Seed: 9}
	links := make([]LinkID, entities)
	for i := range links {
		links[i] = LinkID{Node: i, Port: 0}
	}
	h := NewHazard(spec, links, nil)
	flits := make([]int64, entities)
	draws, fails := 0, 0
	for w := int64(1); w <= windows; w++ {
		for i := range flits {
			flits[i] += every / 2 // load 0.5
		}
		for _, du := range h.downUntil {
			if du == 0 {
				draws++
			}
		}
		for _, ev := range h.Evaluate(w*every, flits, nil) {
			if !ev.Up {
				fails++
			}
		}
	}
	p := -math.Expm1(-spec.LinkLambda0 * math.Exp(spec.Alpha*0.5) * every)
	sigma := math.Sqrt(p * (1 - p) / float64(draws))
	if got := float64(fails) / float64(draws); math.Abs(got-p) > 4*sigma {
		t.Fatalf("failure share %.5f over %d entity-windows, want %.5f ± %.5f", got, draws, p, 4*sigma)
	}
}

func TestHazardLoadCoupling(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 1e-4, Alpha: 6, LinkMTTR: 50, EvalEvery: 32, Seed: 7}
	cold := testHazard(spec)
	hot := testHazard(spec)
	driveHazard(cold, 50000, 0, 0)
	driveHazard(hot, 50000, 1, 0)
	if hot.Failures() <= cold.Failures() {
		t.Fatalf("alpha=6 at full load should fail more than idle: hot=%d cold=%d",
			hot.Failures(), cold.Failures())
	}
}

func TestHazardRepairsFollowFailures(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 5e-4, Alpha: 0, LinkMTTR: 20, EvalEvery: 16, Seed: 3}
	h := testHazard(spec)
	evs := driveHazard(h, 30000, 1, 0)
	var downs, ups int
	for _, ev := range evs {
		if ev.Up {
			ups++
		} else {
			downs++
		}
	}
	if downs == 0 {
		t.Fatalf("no failures emitted")
	}
	// Short MTTR versus a long run: almost every failure must have been
	// repaired; at most the currently-down entities are outstanding.
	if downs-ups > len(h.downUntil) {
		t.Fatalf("%d failures but only %d repairs", downs, ups)
	}
	if got := int64(downs); got != h.Failures() {
		t.Fatalf("Failures()=%d, counted %d", h.Failures(), got)
	}
	if got := int64(ups); got != h.Repairs() {
		t.Fatalf("Repairs()=%d, counted %d", h.Repairs(), got)
	}
}

func TestHazardDownEntityMakesNoDraws(t *testing.T) {
	// With an MTTR far beyond the horizon, each entity fails at most
	// once: once down it must stay silent until its repair cycle.
	spec := HazardSpec{LinkLambda0: 1e-3, NodeLambda0: 1e-3, LinkMTTR: 1e9, NodeMTTR: 1e9, EvalEvery: 16, Seed: 11}
	h := testHazard(spec)
	evs := driveHazard(h, 20000, 1, 1)
	seen := map[string]int{}
	for _, ev := range evs {
		if ev.Up {
			t.Fatalf("repair emitted despite MTTR >> horizon: %v", ev)
		}
		seen[ev.String()]++
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("entity failed twice while down: %s x%d", k, c)
		}
	}
	if h.Down() == 0 {
		t.Fatalf("nothing down after an aggressive no-repair run")
	}
}

func TestHazardOffGridIsFree(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 1e-3, EvalEvery: 64, Seed: 1}
	h := testHazard(spec)
	if h.Due(0) {
		t.Fatalf("cycle 0 must not be due (resume safety)")
	}
	if h.Due(63) || !h.Due(64) {
		t.Fatalf("Due grid wrong")
	}
	if evs := h.Evaluate(63, make([]int64, 4), make([]float64, 2)); evs != nil {
		t.Fatalf("off-grid Evaluate returned events: %v", evs)
	}
}

func TestHazardStateRoundTrip(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 3e-4, NodeLambda0: 1e-4, Alpha: 3, LinkMTTR: 64, NodeMTTR: 64, EvalEvery: 32, Seed: 5}
	h := testHazard(spec)
	driveHazard(h, 10000, 1, 0.5)

	var e snapshot.Encoder
	h.SaveState(&e)

	h2 := testHazard(spec)
	d := snapshot.NewDecoder(e.Bytes())
	if err := h2.LoadState(d); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Continue both and compare: restored process must replay the
	// original byte for byte.
	flits := make([]int64, 4)
	loads := []float64{0.5, 0.5}
	for i := range flits {
		flits[i] = 10000
	}
	for c := int64(10001); c <= 30000; c++ {
		for i := range flits {
			flits[i]++
		}
		a := append([]Event{}, h.Evaluate(c, flits, loads)...)
		b := append([]Event{}, h2.Evaluate(c, flits, loads)...)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cycle %d: original %v restored %v", c, a, b)
		}
	}
	if h.Failures() != h2.Failures() || h.Repairs() != h2.Repairs() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", h.Failures(), h.Repairs(), h2.Failures(), h2.Repairs())
	}
}

func TestHazardLoadStateRejectsMismatch(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 1e-4, Seed: 5}
	h := testHazard(spec)
	var e snapshot.Encoder
	h.SaveState(&e)

	other := NewHazard(spec, []LinkID{{Node: 0, Port: 0}}, nil)
	if err := other.LoadState(snapshot.NewDecoder(e.Bytes())); err == nil {
		t.Fatalf("entity-count mismatch accepted")
	}
}

// TestHazardLoadStateRejectsCorruptSnapshots is the regression table
// for the hazard codec's validation: a snapshot taken over a different
// entity set, an entity count past the decoder's bound, and damaged
// payloads must all be refused.
func TestHazardLoadStateRejectsCorruptSnapshots(t *testing.T) {
	spec := HazardSpec{LinkLambda0: 2e-4, NodeLambda0: 1e-4, Alpha: 4, LinkMTTR: 100, NodeMTTR: 100, EvalEvery: 32, Seed: 7}
	build := func() *Hazard {
		h := testHazard(spec) // 4 links + 2 nodes = 6 entities
		driveHazard(h, 1000, 3, 0.5)
		return h
	}
	save := func(h *Hazard) []byte {
		var e snapshot.Encoder
		h.SaveState(&e)
		return e.Bytes()
	}
	// Sanity: an unmodified snapshot restores cleanly.
	if err := testHazard(spec).LoadState(snapshot.NewDecoder(save(build()))); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	cases := []struct {
		name, wantSub string
		build         func(t *testing.T) []byte
	}{
		{"entity-count-mismatch", "entities", func(t *testing.T) []byte {
			// Two links and one node: 3 entities against the target's 6.
			small := NewHazard(spec, []LinkID{{Node: 0, Port: 0}, {Node: 0, Port: 1}}, []int{0})
			return save(small)
		}},
		{"count-over-bound", "collection length", func(t *testing.T) []byte {
			var e snapshot.Encoder
			e.Varint(0)
			e.Varint(0)
			e.Varint(0)
			e.Uvarint(1 << 21) // entity count far past the process's 6
			return e.Bytes()
		}},
		{"truncated", "truncated", func(t *testing.T) []byte {
			raw := save(build())
			return raw[:len(raw)-1]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := testHazard(spec).LoadState(snapshot.NewDecoder(tc.build(t)))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
