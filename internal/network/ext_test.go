package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Path-wide timeout: routers themselves kill blocked worms and the
// sources retransmit; everything still arrives exactly once.
func TestRouterTimeoutPathWideScheme(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.CR,
		Timeout:       1 << 20, // effectively disable the source scheme
		RouterTimeout: 16,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Check:         true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + topo.Nodes()/2 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 16})
			id++
		}
	}
	ds := runUntilIdle(t, n, 400000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("path-wide delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	if n.RouterStats().RouterKills == 0 {
		t.Fatal("path-wide scheme never fired under saturating load")
	}
	if n.InjectorStats().Kills != 0 {
		t.Fatal("source-based timeout fired despite being disabled")
	}
	seen := map[flit.MessageID]bool{}
	for _, d := range ds {
		if seen[d.Msg] {
			t.Fatalf("message %d delivered twice", d.Msg)
		}
		seen[d.Msg] = true
	}
}

func TestRouterTimeoutRejectsPlainProtocol(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RouterTimeout with Plain protocol accepted")
		}
	}()
	New(Config{
		Topo:          topology.NewTorus(4, 2),
		Alg:           routing.DOR{},
		Protocol:      core.Plain,
		RouterTimeout: 16,
	})
}

// West-first turn-model routing is deadlock-free on the mesh with a
// plain protocol (no CR support needed) under saturating load.
func TestWestFirstMeshDeliversUnderLoad(t *testing.T) {
	topo := topology.NewMesh(4, 2)
	n := New(Config{
		Topo:     topo,
		Alg:      routing.WestFirst{},
		Protocol: core.Plain,
		BufDepth: 2,
		Check:    true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src*5 + round + 1) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 12})
			id++
		}
	}
	ds := runUntilIdle(t, n, 300000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("west-first delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	if n.RouterStats().KillsFwd+n.RouterStats().KillsBwd != 0 {
		t.Fatal("turn-model run used tear-downs")
	}
}

// Bimodal message lengths flow end to end: both populations delivered.
func TestBimodalLengthsEndToEnd(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Check:    true,
	})
	id := flit.MessageID(1)
	shorts, longs := 0, 0
	for round := 0; round < 8; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + 5 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			length := 4
			if (int(id) % 4) == 0 {
				length = 48
				longs++
			} else {
				shorts++
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: length})
			id++
		}
	}
	ds := runUntilIdle(t, n, 400000)
	gotShort, gotLong := 0, 0
	for _, d := range ds {
		switch d.DataLen {
		case 4:
			gotShort++
		case 48:
			gotLong++
		default:
			t.Fatalf("unexpected delivered length %d", d.DataLen)
		}
	}
	if gotShort != shorts || gotLong != longs {
		t.Fatalf("delivered %d/%d short, %d/%d long", gotShort, shorts, gotLong, longs)
	}
}

// CR on an arbitrary irregular graph — the paper's topology-generality
// claim: the protocol needs only distances and minimal ports.
func TestIrregularTopologyCR(t *testing.T) {
	topo := topology.MustIrregular("pentagon+", 6, []topology.Edge{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 4}, {A: 4, B: 0},
		{A: 5, B: 0}, {A: 5, B: 2},
	})
	n := New(Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: 1e-3,
		Check:         true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 20; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + 1 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 8})
			id++
		}
	}
	ds := runUntilIdle(t, n, 300000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("irregular graph delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	for _, d := range ds {
		if !d.DataOK {
			t.Fatalf("corrupt delivery on irregular graph: %+v", d)
		}
	}
	if n.InjectorStats().LateFKills != 0 {
		t.Fatal("padding bound violated on irregular graph")
	}
}

// Link loads must account exactly for the network-link hops of delivered
// traffic on an otherwise idle network.
func TestLinkLoadsAccounting(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := crNet(topo)
	m := flit.Message{ID: 1, Src: 0, Dst: 2, DataLen: 4} // distance 2
	n.SubmitMessage(m)
	runUntilIdle(t, n, 2000)
	frameLen := int64(core.IminCR(2, 2))
	var total int64
	busiest := int64(0)
	for _, ll := range n.LinkLoads() {
		if !ll.Up {
			t.Fatal("link reported down")
		}
		total += ll.Flits
		if ll.Flits > busiest {
			busiest = ll.Flits
		}
	}
	if total != 2*frameLen {
		t.Fatalf("total link flits = %d, want %d (frame x 2 hops)", total, 2*frameLen)
	}
	if busiest != frameLen {
		t.Fatalf("busiest link carried %d, want %d", busiest, frameLen)
	}
}

// The compressionless property, parametrically: for every (distance,
// buffer depth), a worm whose header is blocked at its destination can
// absorb at most core.SlackBound(dist, depth) flits of source injection.
// This is the lemma CR's padding and commit rules are derived from; the
// simulator must honor it exactly.
func TestCompressionlessSlackBoundParametric(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		for _, dist := range []int{1, 2, 3} {
			topo := topology.NewTorus(8, 1)
			n := New(Config{
				Topo:     topo,
				Alg:      routing.MinimalAdaptive{},
				Protocol: core.CR,
				BufDepth: depth,
				Timeout:  1 << 20, // never kill; we observe the stall
				Backoff:  core.Backoff{Kind: core.BackoffStatic, Gap: 8},
				Check:    true,
			})
			// A long blocker occupies node 0's ejection channel.
			n.SubmitMessage(flit.Message{ID: 1, Src: 4, Dst: 0, DataLen: 600})
			n.Run(60) // blocker reaches node 0 and starts draining
			// The probe from `dist` hops away blocks behind it.
			src := topology.NodeID(8 - dist)
			n.SubmitMessage(flit.Message{ID: 2, Src: src, Dst: 0, DataLen: 500})
			n.Run(120)
			st := n.injectors[src].Stats()
			injected := st.DataFlits + st.PadFlits
			bound := int64(core.SlackBound(dist, depth))
			if injected > bound {
				t.Errorf("dist=%d depth=%d: injected %d flits with blocked header, bound %d",
					dist, depth, injected, bound)
			}
			if injected < bound {
				// The bound must also be achievable: the worm should
				// fill all the slack before stalling.
				t.Errorf("dist=%d depth=%d: injected only %d flits, slack %d not filled",
					dist, depth, injected, bound)
			}
		}
	}
}
