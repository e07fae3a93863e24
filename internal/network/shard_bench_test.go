package network

import (
	"fmt"
	"testing"

	"crnet/internal/core"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Forked-kernel benchmarks: the per-cycle cost of Network.Step at
// three machine scales, one inline range (shards0) versus several
// forked ones. The last recorded rows are in DESIGN.md §10.
//
// The interesting row is 256x256 saturated: the per-range phases
// dominate the cycle there, so on a multi-core host the forked rows
// should approach GOMAXPROCS-way speedup over shards0 (minus barrier
// costs).
// On a single-core host the sharded rows instead measure pure
// orchestration overhead — goroutine fork/join and mailbox merging with
// no parallelism to pay for it — which is also worth pinning.
//
// The 1024x1024 rows run at low load: a million-node network never runs
// saturated in practice (the memory diet exists so sparse activity on a
// huge fabric is cheap), and the benchmark cost stays bounded.
//
// Routers are built at their first touch, and where they sit in memory
// is part of what a step costs. A run offered light load touches them in
// scattered order; the warmup's first cycle at 0.9 would touch nearly
// every node in ascending order. So the saturated rows first offer
// scatterLoad for `scatter` cycles (most routers are built by then:
// ~93 % of 64x64, ~82 % of 256x256), and only then warm up at the
// measured load.
func BenchmarkStepShard(b *testing.B) {
	const scatterLoad = 0.05
	cases := []struct {
		k       int
		load    float64
		scatter int64
		warmup  int64
	}{
		{64, 0.9, 200, 300},
		{256, 0.9, 200, 120},
		{1024, 0.05, 0, 20},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 2, 4, 8} {
			c, shards := c, shards
			b.Run(fmt.Sprintf("k%d/shards%d", c.k, shards), func(b *testing.B) {
				n := New(Config{
					Topo:     topology.NewTorus(c.k, 2),
					Alg:      routing.MinimalAdaptive{},
					Protocol: core.CR,
					Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
					Shards:   shards,
					Seed:     1,
				})
				topo := n.Topology()
				gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, scatterLoad, 16, 2)
				tick := func(cycle int64) {
					for node := 0; node < topo.Nodes(); node++ {
						if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
							n.SubmitMessage(m)
						}
					}
					n.Step()
					n.DrainDeliveries()
				}
				for cyc := int64(0); cyc < c.scatter; cyc++ {
					tick(cyc)
				}
				gen = traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, c.load, 16, 1)
				start := c.scatter + c.warmup
				for cyc := c.scatter; cyc < start; cyc++ {
					tick(cyc)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tick(start + int64(i))
				}
			})
		}
	}
}
