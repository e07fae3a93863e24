package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// checkLinkConservation asserts, for every network link and VC:
// upstream credits + downstream buffered + in-flight == BufDepth.
func checkLinkConservation(t *testing.T, n *Network, vcs, depth int) {
	t.Helper()
	inFlightVC := map[linkRef]int{}
	for i := range n.shards {
		for _, f := range n.shards[i].busyLinks {
			inFlightVC[f.ref] = int(f.vc)
		}
	}
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			l := n.linkAt(id, p)
			if !l.up() {
				continue
			}
			// Lazy construction: a link between two never-touched
			// routers trivially conserves (full credits, empty buffers).
			if n.routers[id] == nil && n.routers[l.toNode] == nil {
				continue
			}
			up := n.routerAt(topology.NodeID(id))
			down := n.routerAt(topology.NodeID(l.toNode))
			for vc := 0; vc < vcs; vc++ {
				inFlight := 0
				if fvc, ok := inFlightVC[linkRef{node: int32(id), port: int32(p)}]; ok && fvc == vc {
					inFlight = 1
				}
				credit := up.CreditOf(p, vc)
				buffered := down.BufferedAt(int(l.toPort), vc)
				if credit+buffered+inFlight != depth {
					t.Fatalf("cycle %d: link (%d,%d) vc %d: credit %d + buffered %d + inflight %d != %d",
						n.Cycle(), id, p, vc, credit, buffered, inFlight, depth)
				}
			}
		}
	}
}

func TestCreditConservationUnderKillStorm(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	const vcs, depth = 2, 2
	n := New(Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		VCs:      vcs,
		BufDepth: depth,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     3,
		Check:    true,
	})
	gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, 0.9, 8, 9)
	for c := int64(0); c < 8000; c++ {
		for node := 0; node < topo.Nodes(); node++ {
			if m, ok := gen.Tick(topology.NodeID(node), c); ok {
				n.SubmitMessage(m)
			}
		}
		n.Step()
		n.DrainDeliveries()
		checkLinkConservation(t, n, vcs, depth)
	}
	_ = flit.MessageID(0)
}
