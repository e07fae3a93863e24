package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// TestCreditConservationUnderKillStorm runs a saturated CR torus, where
// timeouts kill worms continually, under Config.Check: every cycle ends
// with the consistency walk (checkNetwork), whose credit clause is, for
// every up link and VC, upstream credits + downstream buffered +
// in-flight == BufDepth.
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
	}
	if n.InjectorStats().Kills == 0 {
		t.Fatal("no worm was killed; the storm never happened")
	}
}
