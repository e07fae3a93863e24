package router

import (
	"testing"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Two worms on different VCs of the same physical output must share the
// channel flit-by-flit under round-robin arbitration — neither starves.
func TestSwitchArbitrationInterleavesWorms(t *testing.T) {
	g := topology.NewTorus(8, 1)
	cfg := Config{VCs: 2, BufDepth: 4, InjectionChannels: 2, EjectionChannels: 1, Check: true}
	r := New(1, g, routing.MinimalAdaptive{}, cfg)

	// Both worms leave node 1 toward node 3 over the single +x port.
	frA := flit.Frame{Msg: flit.Message{ID: 1, Src: 1, Dst: 3, DataLen: 8}}
	frB := flit.Frame{Msg: flit.Message{ID: 2, Src: 1, Dst: 3, DataLen: 8}}
	r.Inject(0, frA.FlitAt(0))
	r.Inject(1, frB.FlitAt(0))
	r.RouteAndAllocate(nil)
	if r.Stats().HeadersRouted != 2 {
		t.Fatalf("both worms should allocate distinct VCs of +x, routed=%d", r.Stats().HeadersRouted)
	}

	nextA, nextB := 1, 1
	var sequence []flit.MessageID
	for cycle := 0; cycle < 40 && len(sequence) < 16; cycle++ {
		if nextA < 8 && r.InjectionFree(0) > 0 {
			r.Inject(0, frA.FlitAt(nextA))
			nextA++
		}
		if nextB < 8 && r.InjectionFree(1) > 0 {
			r.Inject(1, frB.FlitAt(nextB))
			nextB++
		}
		r.Transmit(
			func(p, vc int, f flit.Flit) {
				sequence = append(sequence, f.Worm.Message())
				// Return the credit immediately: downstream is fast.
				r.ApplyCredit(p, vc, 1, 0)
			},
			func(int, int) {},
		)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(sequence) != 16 {
		t.Fatalf("only %d flits crossed the shared channel, want 16", len(sequence))
	}
	// Fairness: over any window of 8 consecutive flits, both worms appear.
	for i := 0; i+8 <= len(sequence); i++ {
		seen := map[flit.MessageID]bool{}
		for _, id := range sequence[i : i+8] {
			seen[id] = true
		}
		if len(seen) < 2 {
			t.Fatalf("starvation window at %d: %v", i, sequence)
		}
	}
	// One flit per cycle on the physical channel was enforced implicitly
	// (Transmit emits at most one move per output); verify counts.
	if got := r.Stats().FlitsMoved; got != int64(len(sequence)) {
		t.Fatalf("FlitsMoved %d != observed %d", got, len(sequence))
	}
}

// A single worm must stream one flit per cycle through an uncontended
// router (full pipeline utilization).
func TestUncontendedWormStreamsAtFullRate(t *testing.T) {
	g := topology.NewTorus(8, 1)
	cfg := Config{VCs: 1, BufDepth: 2, InjectionChannels: 1, EjectionChannels: 1, Check: true}
	r := New(1, g, routing.MinimalAdaptive{}, cfg)
	fr := flit.Frame{Msg: flit.Message{ID: 1, Src: 1, Dst: 3, DataLen: 12}}
	next := 0
	moves := 0
	for cycle := 0; cycle < 40 && moves < 12; cycle++ {
		if next < 12 && r.InjectionFree(0) > 0 {
			r.Inject(0, fr.FlitAt(next))
			next++
		}
		r.RouteAndAllocate(nil)
		r.Transmit(
			func(p, vc int, f flit.Flit) {
				moves++
				r.ApplyCredit(p, vc, 1, 0)
			},
			func(int, int) {},
		)
	}
	if moves != 12 {
		t.Fatalf("streamed %d flits in 40 cycles, want 12", moves)
	}
}
