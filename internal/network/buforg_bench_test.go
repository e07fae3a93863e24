package network

import (
	"fmt"
	"testing"

	"crnet/internal/core"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Buffer-organization benchmarks: the per-cycle cost of Network.Step
// under each router buffer organization at a saturated 64x64 CR torus,
// on one range and on four. The last recorded rows are in DESIGN.md
// §11. Storage is the same rings in every organization; what differs at
// shards0 is the granted-window ledger on every head/tail and the
// traffic the wider windows produce (longer padded worms under shared),
// and the sharded rows show the window advertisements riding the credit
// mailbox matrix.
func BenchmarkStepBufferOrg(b *testing.B) {
	for _, org := range router.BufferOrgs {
		for _, shards := range []int{0, 4} {
			org, shards := org, shards
			b.Run(fmt.Sprintf("%s/shards%d", org, shards), func(b *testing.B) {
				n := New(Config{
					Topo:     topology.NewTorus(64, 2),
					Alg:      routing.MinimalAdaptive{},
					Protocol: core.CR,
					BufOrg:   org,
					Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
					Shards:   shards,
					Seed:     1,
				})
				topo := n.Topology()
				gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, 0.9, 16, 1)
				tick := func(cycle int64) {
					for node := 0; node < topo.Nodes(); node++ {
						if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
							n.SubmitMessage(m)
						}
					}
					n.Step()
					n.DrainDeliveries()
				}
				const warmup = 300
				for cyc := int64(0); cyc < warmup; cyc++ {
					tick(cyc)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tick(warmup + int64(i))
				}
			})
		}
	}
}
