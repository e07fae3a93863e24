package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Kernel microbenchmarks: the per-cycle cost of Network.Step at three
// operating points. Their history is the table in DESIGN.md §5; the
// low-load case is the one the active-set scheduler
// is designed for (most of the network idle, cost O(active) instead of
// O(network)).
//
// All three run a 16x16 CR torus (the paper's machine scale); traffic is
// driven exactly like sim.Run drives it — one generator tick per node
// per cycle, deliveries drained every cycle — so a benchmarked step
// includes the full steady-state loop, not just the network phases.

const benchK = 16

func benchNetwork() *Network {
	return New(Config{
		Topo:     topology.NewTorus(benchK, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
	})
}

// stepLoop warms the network up for warmup cycles at the given load,
// then times b.N cycles of the submit/step/drain loop.
func stepLoop(b *testing.B, load float64, warmup int64) {
	b.Helper()
	n := benchNetwork()
	topo := n.Topology()
	var gen *traffic.Generator
	if load > 0 {
		gen = traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, load, 16, 1)
	}
	tick := func(cycle int64) {
		if gen != nil {
			for node := 0; node < topo.Nodes(); node++ {
				if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
					n.SubmitMessage(m)
				}
			}
		}
		n.Step()
		n.DrainDeliveries()
	}
	for c := int64(0); c < warmup; c++ {
		tick(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(warmup + int64(i))
	}
}

// BenchmarkStepIdle is a completely quiescent network: no worms, no
// queued messages. The floor every sub-saturation experiment pays
// between bursts.
func BenchmarkStepIdle(b *testing.B) { stepLoop(b, 0, 100) }

// BenchmarkStepLowLoad offers 10% of saturation capacity — the common
// case in the paper's latency-vs-load sweeps, where most routers are
// idle on any given cycle.
func BenchmarkStepLowLoad(b *testing.B) { stepLoop(b, 0.1, 2000) }

// BenchmarkStepSaturated offers 90% of capacity: nearly every router
// busy, the active-set bookkeeping all overhead and no savings.
func BenchmarkStepSaturated(b *testing.B) { stepLoop(b, 0.9, 2000) }
