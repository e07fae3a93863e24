// Package topology defines the direct-network topologies the simulator
// routes over: k-ary n-cubes with (torus) and without (mesh) wraparound
// channels, and binary hypercubes.
//
// A topology is a static port-labelled graph. Nodes are dense integer ids
// in [0, Nodes()); each node exposes up to Degree() network ports. The
// routing and router packages work purely in terms of (node, port) pairs,
// so new topologies only need to implement the Topology interface.
package topology

import "fmt"

// NodeID identifies a node (router + processing element) in the network.
type NodeID int

// Port identifies one outgoing network channel of a node. Ports are dense
// in [0, Degree()); a port may be unconnected on asymmetric topologies
// such as mesh edges.
type Port int

// InvalidPort marks "no port"; used by routing functions for sentinel
// returns.
const InvalidPort Port = -1

// Topology describes a static direct network.
//
// Implementations must be immutable after construction; they are shared
// by every router and routing function without synchronization.
type Topology interface {
	// Name returns a short human-readable description, e.g. "16x16 torus".
	Name() string

	// Nodes returns the number of nodes.
	Nodes() int

	// Degree returns the number of port slots per node. Individual ports
	// may still be unconnected (Neighbor reports ok=false).
	Degree() int

	// Neighbor returns the node reached over port p of node n. ok is
	// false when the port is unconnected (e.g. the +x port of the last
	// column of a mesh).
	Neighbor(n NodeID, p Port) (next NodeID, ok bool)

	// ReversePort returns the port at Neighbor(n, p) whose channel leads
	// back to n. It panics if (n, p) is unconnected.
	ReversePort(n NodeID, p Port) Port

	// Distance returns the minimal hop count from a to b.
	Distance(a, b NodeID) int

	// Diameter returns the maximum Distance over all node pairs.
	Diameter() int

	// AverageDistance returns the mean Distance between distinct node
	// pairs under uniform traffic; used to normalize offered load.
	AverageDistance() float64

	// MinimalPorts appends to buf every port of cur whose channel strictly
	// reduces Distance to dst, and returns the extended slice. The result
	// is empty iff cur == dst. Ports are appended in ascending order so
	// deterministic policies built on top remain reproducible.
	MinimalPorts(cur, dst NodeID, buf []Port) []Port

	// CrossesDateline reports whether the channel (n, p) is a wraparound
	// channel of its dimension's ring. Dimension-order routing on tori
	// switches virtual-channel class when crossing such a channel
	// (Dally-Seitz dateline discipline). Meshes and hypercubes always
	// report false.
	CrossesDateline(n NodeID, p Port) bool
}

// Grid is a k-ary n-cube: n dimensions of k nodes each, with optional
// wraparound links. Wrap=true is the torus used throughout the paper's
// evaluation; Wrap=false is the mesh.
type Grid struct {
	k, n    int
	wrap    bool
	nodes   int
	avgDist float64
	diam    int
}

// NewTorus returns a k-ary n-cube with wraparound channels.
func NewTorus(k, n int) *Grid { return newGrid(k, n, true) }

// NewMesh returns a k-ary n-cube without wraparound channels.
func NewMesh(k, n int) *Grid { return newGrid(k, n, false) }

// maxOrder bounds a topology at 2^30 nodes: a hypercube's order, and the
// base-2 log of a grid's k^n.
const maxOrder = 30

// checkGrid reports why (k, n) is not a k-ary n-cube this package builds.
func checkGrid(k, n int) error {
	if k < 2 {
		return fmt.Errorf("topology: radix k=%d must be >= 2", k)
	}
	if n < 1 {
		return fmt.Errorf("topology: dimension n=%d must be >= 1", n)
	}
	for nodes, i := 1, 0; i < n; i++ {
		if k > (1<<maxOrder)/nodes { // nodes*k would pass the bound (or overflow)
			return fmt.Errorf("topology: %d^%d nodes exceed 2^%d", k, n, maxOrder)
		}
		nodes *= k
	}
	return nil
}

// checkHypercube reports why n is not a hypercube order this package builds.
func checkHypercube(n int) error {
	if n < 1 || n > maxOrder {
		return fmt.Errorf("topology: hypercube dimension %d out of range [1,%d]", n, maxOrder)
	}
	return nil
}

// ByName constructs the topology a -topo flag names: "torus" and "mesh"
// are k-ary dims-cubes, "hypercube" is the binary dims-cube (k unused).
// Parameters the constructors would panic on are returned as errors.
func ByName(name string, k, dims int) (Topology, error) {
	switch name {
	case "torus", "mesh":
		if err := checkGrid(k, dims); err != nil {
			return nil, err
		}
		return newGrid(k, dims, name == "torus"), nil
	case "hypercube":
		if err := checkHypercube(dims); err != nil {
			return nil, err
		}
		return NewHypercube(dims), nil
	default:
		return nil, fmt.Errorf("topology: unknown topology %q (want torus, mesh or hypercube)", name)
	}
}

func newGrid(k, n int, wrap bool) *Grid {
	if err := checkGrid(k, n); err != nil {
		panic(err.Error())
	}
	g := &Grid{k: k, n: n, wrap: wrap}
	g.nodes = 1
	for i := 0; i < n; i++ {
		g.nodes *= k
	}
	g.avgDist = g.computeAverageDistance()
	g.diam = g.computeDiameter()
	return g
}

// Radix returns k, the nodes per dimension.
func (g *Grid) Radix() int { return g.k }

// Dims returns n, the number of dimensions.
func (g *Grid) Dims() int { return g.n }

// Wrap reports whether the grid has wraparound (torus) channels.
func (g *Grid) Wrap() bool { return g.wrap }

// Name implements Topology.
func (g *Grid) Name() string {
	kind := "mesh"
	if g.wrap {
		kind = "torus"
	}
	s := ""
	for i := 0; i < g.n; i++ {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(g.k)
	}
	return s + " " + kind
}

// Nodes implements Topology.
func (g *Grid) Nodes() int { return g.nodes }

// Degree implements Topology. Port 2d is the +direction of dimension d,
// port 2d+1 the -direction.
func (g *Grid) Degree() int { return 2 * g.n }

// Coord returns the coordinate of node id in dimension d.
func (g *Grid) Coord(id NodeID, d int) int {
	c := int(id)
	for i := 0; i < d; i++ {
		c /= g.k
	}
	return c % g.k
}

// Node returns the node id at the given coordinates. Coordinates are
// taken modulo k so callers may pass unnormalized values.
func (g *Grid) Node(coords ...int) NodeID {
	if len(coords) != g.n {
		panic(fmt.Sprintf("topology: Node wants %d coords, got %d", g.n, len(coords)))
	}
	id, stride := 0, 1
	for d := 0; d < g.n; d++ {
		c := coords[d] % g.k
		if c < 0 {
			c += g.k
		}
		id += c * stride
		stride *= g.k
	}
	return NodeID(id)
}

// PortDim returns the dimension a port belongs to.
func PortDim(p Port) int { return int(p) / 2 }

// PortPlus reports whether a port points in its dimension's +direction.
func PortPlus(p Port) bool { return int(p)%2 == 0 }

// PortFor returns the port for dimension d in the given direction.
func PortFor(d int, plus bool) Port {
	p := Port(2 * d)
	if !plus {
		p++
	}
	return p
}

// Neighbor implements Topology.
func (g *Grid) Neighbor(n NodeID, p Port) (NodeID, bool) {
	d := PortDim(p)
	if d >= g.n || p < 0 {
		return 0, false
	}
	c := g.Coord(n, d)
	var nc int
	if PortPlus(p) {
		nc = c + 1
		if nc == g.k {
			if !g.wrap {
				return 0, false
			}
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			if !g.wrap {
				return 0, false
			}
			nc = g.k - 1
		}
	}
	return g.withCoord(n, d, nc), true
}

// withCoord returns n with dimension d's coordinate replaced by c.
func (g *Grid) withCoord(n NodeID, d, c int) NodeID {
	stride := 1
	for i := 0; i < d; i++ {
		stride *= g.k
	}
	old := g.Coord(n, d)
	return n + NodeID((c-old)*stride)
}

// ReversePort implements Topology.
func (g *Grid) ReversePort(n NodeID, p Port) Port {
	if _, ok := g.Neighbor(n, p); !ok {
		panic(fmt.Sprintf("topology: ReversePort of unconnected port %d at node %d", p, n))
	}
	if PortPlus(p) {
		return p + 1
	}
	return p - 1
}

// Distance implements Topology.
func (g *Grid) Distance(a, b NodeID) int {
	dist := 0
	for d := 0; d < g.n; d++ {
		delta := g.Coord(b, d) - g.Coord(a, d)
		if delta < 0 {
			delta = -delta
		}
		if g.wrap && g.k-delta < delta {
			delta = g.k - delta
		}
		dist += delta
	}
	return dist
}

// Diameter implements Topology.
func (g *Grid) Diameter() int { return g.diam }

func (g *Grid) computeDiameter() int {
	per := g.k - 1
	if g.wrap {
		per = g.k / 2
	}
	return per * g.n
}

// AverageDistance implements Topology.
func (g *Grid) AverageDistance() float64 { return g.avgDist }

func (g *Grid) computeAverageDistance() float64 {
	// Per-dimension mean ring/line distance between two independent
	// uniform coordinates, times n; exclude the self pair globally.
	sum := 0.0
	for a := 0; a < g.k; a++ {
		for b := 0; b < g.k; b++ {
			delta := a - b
			if delta < 0 {
				delta = -delta
			}
			if g.wrap && g.k-delta < delta {
				delta = g.k - delta
			}
			sum += float64(delta)
		}
	}
	perDim := sum / float64(g.k*g.k)
	total := perDim * float64(g.n)
	// Condition on the pair being distinct: E[d | a != b] = E[d] * N/(N-1)
	// because d=0 exactly when a == b (probability 1/N).
	nn := float64(g.nodes)
	return total * nn / (nn - 1)
}

// MinimalPorts implements Topology. On a torus with even k and a delta of
// exactly k/2 in some dimension, both directions are minimal and both are
// returned — this is where torus adaptivity exceeds the mesh's.
func (g *Grid) MinimalPorts(cur, dst NodeID, buf []Port) []Port {
	for d := 0; d < g.n; d++ {
		cc, dc := g.Coord(cur, d), g.Coord(dst, d)
		if cc == dc {
			continue
		}
		fwd := dc - cc // + direction travel, unwrapped
		if fwd < 0 {
			fwd += g.k
		}
		bwd := g.k - fwd
		switch {
		case !g.wrap:
			if dc > cc {
				buf = append(buf, PortFor(d, true))
			} else {
				buf = append(buf, PortFor(d, false))
			}
		case fwd < bwd:
			buf = append(buf, PortFor(d, true))
		case bwd < fwd:
			buf = append(buf, PortFor(d, false))
		default: // equidistant both ways around the ring
			buf = append(buf, PortFor(d, true), PortFor(d, false))
		}
	}
	return buf
}

// CrossesDateline implements Topology. The dateline of each ring is the
// channel between coordinates k-1 and 0: the +port of the node with
// coordinate k-1 and the -port of the node with coordinate 0.
func (g *Grid) CrossesDateline(n NodeID, p Port) bool {
	if !g.wrap {
		return false
	}
	d := PortDim(p)
	if d >= g.n {
		return false
	}
	c := g.Coord(n, d)
	if PortPlus(p) {
		return c == g.k-1
	}
	return c == 0
}

// Hypercube is the binary n-cube: 2^n nodes, one port per dimension.
type Hypercube struct {
	n     int
	nodes int
	avg   float64
}

// NewHypercube returns an n-dimensional binary hypercube.
func NewHypercube(n int) *Hypercube {
	if err := checkHypercube(n); err != nil {
		panic(err.Error())
	}
	h := &Hypercube{n: n, nodes: 1 << n}
	// Mean Hamming distance of two uniform n-bit strings is n/2;
	// conditioned on distinct pairs, scale by N/(N-1).
	nn := float64(h.nodes)
	h.avg = float64(n) / 2 * nn / (nn - 1)
	return h
}

// Dims returns the hypercube's dimension count.
func (h *Hypercube) Dims() int { return h.n }

// Name implements Topology.
func (h *Hypercube) Name() string { return fmt.Sprintf("%d-cube", h.n) }

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return h.nodes }

// Degree implements Topology. Port d flips address bit d.
func (h *Hypercube) Degree() int { return h.n }

// Neighbor implements Topology.
func (h *Hypercube) Neighbor(n NodeID, p Port) (NodeID, bool) {
	if p < 0 || int(p) >= h.n {
		return 0, false
	}
	return n ^ (1 << uint(p)), true
}

// ReversePort implements Topology: hypercube channels are symmetric.
func (h *Hypercube) ReversePort(n NodeID, p Port) Port {
	if p < 0 || int(p) >= h.n {
		panic(fmt.Sprintf("topology: ReversePort of invalid port %d", p))
	}
	return p
}

// Distance implements Topology: Hamming distance.
func (h *Hypercube) Distance(a, b NodeID) int {
	x := uint32(a ^ b)
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// Diameter implements Topology.
func (h *Hypercube) Diameter() int { return h.n }

// AverageDistance implements Topology.
func (h *Hypercube) AverageDistance() float64 { return h.avg }

// MinimalPorts implements Topology: every differing address bit is a
// productive dimension.
func (h *Hypercube) MinimalPorts(cur, dst NodeID, buf []Port) []Port {
	diff := uint32(cur ^ dst)
	for d := 0; diff != 0; d++ {
		if diff&1 != 0 {
			buf = append(buf, Port(d))
		}
		diff >>= 1
	}
	return buf
}

// CrossesDateline implements Topology: hypercube rings have length 2 and
// dimension-order routing on them is cycle-free without datelines.
func (h *Hypercube) CrossesDateline(NodeID, Port) bool { return false }

// Compile-time interface checks.
var (
	_ Topology = (*Grid)(nil)
	_ Topology = (*Hypercube)(nil)
)
