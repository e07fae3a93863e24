package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// TestConsistencyWalkAllocatesNothing holds the walk to what finishStep
// can afford every cycle: on a loaded network of each buffer
// organization, with worms in flight and on links, checkNetwork finds
// it consistent without allocating.
func TestConsistencyWalkAllocatesNothing(t *testing.T) {
	for _, org := range router.BufferOrgs {
		t.Run(org.String(), func(t *testing.T) {
			topo := topology.NewTorus(4, 2)
			n := New(Config{
				Topo:     topo,
				Alg:      routing.MinimalAdaptive{},
				Protocol: core.CR,
				BufOrg:   org,
				Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
				Seed:     5,
			})
			gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, 0.5, 8, 3)
			for c := int64(0); c < 400; c++ {
				for node := 0; node < topo.Nodes(); node++ {
					if m, ok := gen.Tick(topology.NodeID(node), c); ok {
						n.SubmitMessage(m)
					}
				}
				n.Step()
				n.DrainDeliveries()
			}
			if n.InFlightFlits() == 0 || n.PendingWorms() == 0 {
				t.Fatal("no worm in the network; the walk has nothing to follow")
			}
			var err error
			if allocs := testing.AllocsPerRun(10, func() { err = n.checkNetwork() }); allocs != 0 {
				t.Errorf("the walk allocates %.0f times", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
