package network

import (
	"testing"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/rng"
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

// BenchmarkStepHoods is the memory-bound regime on one range: a 64x64
// CR torus cut into its 64 8x8 neighbourhoods, each node starting a
// 16-flit message with probability 0.003 per cycle to a random other
// node of its own neighbourhood — the benchmark's sparse512 traffic
// without the 512x512 fabric around it. It reports the step cost per
// link traversal as ns/flit-hop.
func BenchmarkStepHoods(b *testing.B) {
	const k, side, p, msgLen = 64, 8, 0.003, 16
	g := topology.NewTorus(k, 2)
	n := New(Config{
		Topo:     g,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		BufDepth: 2,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     1,
	})
	hood := make([][]topology.NodeID, g.Nodes()) // each node's neighbourhood
	for cy := 0; cy < k/side; cy++ {
		for cx := 0; cx < k/side; cx++ {
			var cell []topology.NodeID
			for dy := 0; dy < side; dy++ {
				for dx := 0; dx < side; dx++ {
					cell = append(cell, g.Node(cx*side+dx, cy*side+dy))
				}
			}
			for _, id := range cell {
				hood[id] = cell
			}
		}
	}
	r := rng.New(1)
	var next flit.MessageID
	tick := func(cycle int64) {
		for src := range hood {
			if !r.Bernoulli(p) {
				continue
			}
			dst := hood[src][r.Intn(len(hood[src]))]
			for int(dst) == src {
				dst = hood[src][r.Intn(len(hood[src]))]
			}
			next++
			n.SubmitMessage(flit.Message{ID: next, Src: topology.NodeID(src), Dst: dst, DataLen: msgLen, CreateTime: cycle})
		}
		n.Step()
		n.DrainDeliveries()
	}
	const warmup = 500
	for c := int64(0); c < warmup; c++ {
		tick(c)
	}
	hops := n.LinkFlits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(warmup + int64(i))
	}
	b.StopTimer()
	if hops = n.LinkFlits() - hops; hops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/flit-hop")
	}
}

// BenchmarkStepIdle1024 steps a quiescent 1024x1024 torus: with every
// worklist empty, a Step must cost O(active) = O(1), not O(network).
func BenchmarkStepIdle1024(b *testing.B) {
	n := New(Config{
		Topo:     topology.NewTorus(1024, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
	})
	n.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}
