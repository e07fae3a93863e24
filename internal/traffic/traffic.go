// Package traffic generates the synthetic workloads the paper evaluates
// on: spatial destination patterns (uniform random, transpose,
// bit-reversal, bit-complement, hotspot) combined with a Bernoulli
// open-loop injection process normalized against the topology's uniform
// saturation capacity.
package traffic

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/topology"
)

// Pattern maps a source node to a destination for each generated message.
// Deterministic patterns (transpose, bit-reversal) ignore the random
// source; stochastic ones (uniform, hotspot) draw from it.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest returns the destination for a message from src. It must never
	// return src; sources whose pattern maps to themselves (e.g. the
	// diagonal under transpose) are remapped by the implementation.
	Dest(src topology.NodeID, r *rng.Source) topology.NodeID
}

// Uniform sends each message to a destination drawn uniformly from all
// other nodes — the paper's primary workload.
type Uniform struct{ Nodes int }

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src topology.NodeID, r *rng.Source) topology.NodeID {
	d := topology.NodeID(r.Intn(u.Nodes - 1))
	if d >= src {
		d++
	}
	return d
}

// Transpose sends (x, y) to (y, x) on a 2-D grid; diagonal nodes fall
// back to the antipode so every node contributes load. Transpose stresses
// one diagonal of the network and rewards adaptivity.
type Transpose struct{ Grid *topology.Grid }

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (t Transpose) Dest(src topology.NodeID, _ *rng.Source) topology.NodeID {
	g := t.Grid
	if g.Dims() != 2 {
		panic("traffic: transpose requires a 2-D grid")
	}
	x, y := g.Coord(src, 0), g.Coord(src, 1)
	if x == y {
		return antipode(g, src)
	}
	return g.Node(y, x)
}

func antipode(g *topology.Grid, src topology.NodeID) topology.NodeID {
	k := g.Radix()
	coords := make([]int, g.Dims())
	for d := range coords {
		coords[d] = (g.Coord(src, d) + k/2) % k
	}
	dst := g.Node(coords...)
	if dst == src { // k == 1 cannot happen (radix >= 2), but be safe
		dst = (src + 1) % topology.NodeID(g.Nodes())
	}
	return dst
}

// BitReversal sends the node whose index is the bit-reversed source
// index (over the log2(nodes) address bits). Nodes mapping to themselves
// fall back to the complement address.
type BitReversal struct{ Nodes int }

// Name implements Pattern.
func (BitReversal) Name() string { return "bit-reversal" }

// Dest implements Pattern.
func (b BitReversal) Dest(src topology.NodeID, _ *rng.Source) topology.NodeID {
	bits := addressBits(b.Nodes)
	v := uint(src)
	var rev uint
	for i := 0; i < bits; i++ {
		rev = rev<<1 | (v & 1)
		v >>= 1
	}
	dst := topology.NodeID(rev)
	if dst == src {
		dst = topology.NodeID(uint(src) ^ (1<<uint(bits) - 1))
	}
	if dst == src { // single-node network; callers validate earlier
		dst = (src + 1) % topology.NodeID(b.Nodes)
	}
	return dst
}

// BitComplement sends each node to the complement of its address bits —
// the worst-case distance permutation on tori and hypercubes.
type BitComplement struct{ Nodes int }

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// Dest implements Pattern.
func (b BitComplement) Dest(src topology.NodeID, _ *rng.Source) topology.NodeID {
	bits := addressBits(b.Nodes)
	dst := topology.NodeID(uint(src) ^ (1<<uint(bits) - 1))
	if int(dst) >= b.Nodes || dst == src {
		dst = (src + topology.NodeID(b.Nodes/2)) % topology.NodeID(b.Nodes)
	}
	if dst == src {
		dst = (src + 1) % topology.NodeID(b.Nodes)
	}
	return dst
}

func addressBits(nodes int) int {
	bits := 0
	for 1<<uint(bits) < nodes {
		bits++
	}
	return bits
}

// Hotspot sends each message to one of the Spots with probability Frac,
// and uniformly otherwise — the classic contention workload.
type Hotspot struct {
	Nodes int
	Spots []topology.NodeID
	Frac  float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d@%.2f)", len(h.Spots), h.Frac) }

// Dest implements Pattern.
func (h Hotspot) Dest(src topology.NodeID, r *rng.Source) topology.NodeID {
	if len(h.Spots) > 0 && r.Bernoulli(h.Frac) {
		d := h.Spots[r.Intn(len(h.Spots))]
		if d != src {
			return d
		}
	}
	return Uniform{Nodes: h.Nodes}.Dest(src, r)
}

// ByName constructs a pattern from its report name; grids are required
// for transpose. Supported: uniform, transpose, bit-reversal,
// bit-complement, hotspot (4 corner spots at 20%).
func ByName(name string, topo topology.Topology) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform{Nodes: topo.Nodes()}, nil
	case "transpose":
		g, ok := topo.(*topology.Grid)
		if !ok || g.Dims() != 2 {
			return nil, fmt.Errorf("traffic: transpose needs a 2-D grid, have %s", topo.Name())
		}
		return Transpose{Grid: g}, nil
	case "bit-reversal":
		return BitReversal{Nodes: topo.Nodes()}, nil
	case "bit-complement":
		return BitComplement{Nodes: topo.Nodes()}, nil
	case "hotspot":
		spots := []topology.NodeID{0, topology.NodeID(topo.Nodes() / 2)}
		return Hotspot{Nodes: topo.Nodes(), Spots: spots, Frac: 0.2}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Generator produces messages for every node with a Bernoulli process.
//
// Load is expressed as a fraction of the network's uniform-traffic
// saturation capacity; see CapacityFlitsPerNode.
type Generator struct {
	pattern Pattern
	lengths LengthModel
	prob    float64 // per-node, per-cycle message start probability
	nodeRNG []*rng.Source
	nextID  flit.MessageID
}

// CapacityFlitsPerNode returns the theoretical saturation injection
// bandwidth for uniform traffic, in flits per node per cycle: each node
// owns Degree() unidirectional links and each flit consumes
// AverageDistance() link traversals, so capacity = degree / avgDistance.
// Node-interface limits (one flit per injection channel per cycle) are
// accounted for by the caller.
func CapacityFlitsPerNode(topo topology.Topology) float64 {
	return float64(topo.Degree()) / topo.AverageDistance()
}

// NewGenerator returns a generator that offers `load` fraction of
// capacity with fixed-length messages of msgLen flits. Each node gets an
// independent RNG stream split from seed so results are reproducible and
// insensitive to node evaluation order.
func NewGenerator(topo topology.Topology, pattern Pattern, load float64, msgLen int, seed uint64) *Generator {
	if msgLen < 1 {
		panic(fmt.Sprintf("traffic: message length %d", msgLen))
	}
	return NewGeneratorLengths(topo, pattern, load, FixedLength(msgLen), seed)
}

// NewGeneratorLengths is NewGenerator with an arbitrary message-length
// model; offered load is normalized by the model's mean length.
func NewGeneratorLengths(topo topology.Topology, pattern Pattern, load float64, lengths LengthModel, seed uint64) *Generator {
	if load < 0 {
		panic(fmt.Sprintf("traffic: negative load %v", load))
	}
	if b, ok := lengths.(Bimodal); ok {
		if err := b.validate(); err != nil {
			panic(err)
		}
	}
	if lengths.Mean() < 1 {
		panic(fmt.Sprintf("traffic: mean message length %v < 1", lengths.Mean()))
	}
	flitsPerCycle := load * CapacityFlitsPerNode(topo)
	g := &Generator{
		pattern: pattern,
		lengths: lengths,
		prob:    flitsPerCycle / lengths.Mean(),
		nodeRNG: make([]*rng.Source, topo.Nodes()),
	}
	root := rng.New(seed)
	for i := range g.nodeRNG {
		g.nodeRNG[i] = root.Split()
	}
	return g
}

// Tick returns the message originating at node src this cycle, or ok =
// false. At most one message per node per cycle is generated; loads
// requiring more than one message per cycle per node saturate the
// Bernoulli process and are clamped (such loads exceed any single
// injection channel anyway).
func (g *Generator) Tick(src topology.NodeID, now int64) (flit.Message, bool) {
	r := g.nodeRNG[src]
	if !r.Bernoulli(g.prob) {
		return flit.Message{}, false
	}
	g.nextID++
	return flit.Message{
		ID:         g.nextID,
		Src:        src,
		Dst:        g.pattern.Dest(src, r),
		DataLen:    g.lengths.Length(r),
		CreateTime: now,
	}, true
}
