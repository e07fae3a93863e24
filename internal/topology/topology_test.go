package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func allTopologies() []Topology {
	return []Topology{
		NewTorus(4, 2),
		NewTorus(5, 2),
		NewTorus(16, 2),
		NewTorus(4, 3),
		NewMesh(4, 2),
		NewMesh(8, 2),
		NewMesh(3, 3),
		NewHypercube(3),
		NewHypercube(6),
	}
}

func TestNodesAndNames(t *testing.T) {
	cases := []struct {
		topo  Topology
		nodes int
		name  string
	}{
		{NewTorus(16, 2), 256, "16x16 torus"},
		{NewMesh(8, 2), 64, "8x8 mesh"},
		{NewTorus(4, 3), 64, "4x4x4 torus"},
		{NewHypercube(6), 64, "6-cube"},
	}
	for _, c := range cases {
		if got := c.topo.Nodes(); got != c.nodes {
			t.Errorf("%s: Nodes() = %d, want %d", c.name, got, c.nodes)
		}
		if got := c.topo.Name(); got != c.name {
			t.Errorf("Name() = %q, want %q", got, c.name)
		}
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	g := NewTorus(5, 3)
	for id := NodeID(0); int(id) < g.Nodes(); id++ {
		c0, c1, c2 := g.Coord(id, 0), g.Coord(id, 1), g.Coord(id, 2)
		if back := g.Node(c0, c1, c2); back != id {
			t.Fatalf("Node(Coord(%d)) = %d", id, back)
		}
	}
}

func TestNodeNormalizesCoords(t *testing.T) {
	g := NewTorus(4, 2)
	if g.Node(-1, 0) != g.Node(3, 0) {
		t.Error("negative coordinate did not wrap")
	}
	if g.Node(5, 2) != g.Node(1, 2) {
		t.Error("overflow coordinate did not wrap")
	}
}

func TestNeighborReverseInverse(t *testing.T) {
	for _, topo := range allTopologies() {
		for n := NodeID(0); int(n) < topo.Nodes(); n++ {
			for p := Port(0); int(p) < topo.Degree(); p++ {
				next, ok := topo.Neighbor(n, p)
				if !ok {
					continue
				}
				rp := topo.ReversePort(n, p)
				back, ok2 := topo.Neighbor(next, rp)
				if !ok2 || back != n {
					t.Fatalf("%s: reverse of (%d,%d) broken: got (%d,%v)", topo.Name(), n, p, back, ok2)
				}
			}
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	for _, topo := range allTopologies() {
		nodes := topo.Nodes()
		if nodes > 128 {
			nodes = 128 // bound the O(n^2) scan on big instances
		}
		for a := NodeID(0); int(a) < nodes; a++ {
			if topo.Distance(a, a) != 0 {
				t.Fatalf("%s: Distance(%d,%d) != 0", topo.Name(), a, a)
			}
			for b := NodeID(0); int(b) < nodes; b++ {
				dab, dba := topo.Distance(a, b), topo.Distance(b, a)
				if dab != dba {
					t.Fatalf("%s: asymmetric distance %d vs %d", topo.Name(), dab, dba)
				}
				if a != b && dab <= 0 {
					t.Fatalf("%s: Distance(%d,%d) = %d", topo.Name(), a, b, dab)
				}
				if dab > topo.Diameter() {
					t.Fatalf("%s: distance %d exceeds diameter %d", topo.Name(), dab, topo.Diameter())
				}
			}
		}
	}
}

// Distance must equal shortest-path distance over Neighbor edges.
func TestDistanceMatchesBFS(t *testing.T) {
	for _, topo := range allTopologies() {
		if topo.Nodes() > 128 {
			continue
		}
		src := NodeID(topo.Nodes() / 3)
		dist := bfs(topo, src)
		for n := 0; n < topo.Nodes(); n++ {
			if dist[n] != topo.Distance(src, NodeID(n)) {
				t.Fatalf("%s: Distance(%d,%d) = %d, BFS says %d",
					topo.Name(), src, n, topo.Distance(src, NodeID(n)), dist[n])
			}
		}
	}
}

func bfs(topo Topology, src NodeID) []int {
	dist := make([]int, topo.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := Port(0); int(p) < topo.Degree(); p++ {
			if next, ok := topo.Neighbor(cur, p); ok && dist[next] < 0 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

func TestMinimalPortsReduceDistance(t *testing.T) {
	for _, topo := range allTopologies() {
		nodes := topo.Nodes()
		step := 1
		if nodes > 64 {
			step = nodes / 64
		}
		var buf []Port
		for a := 0; a < nodes; a += step {
			for b := 0; b < nodes; b += step {
				cur, dst := NodeID(a), NodeID(b)
				buf = topo.MinimalPorts(cur, dst, buf[:0])
				if cur == dst {
					if len(buf) != 0 {
						t.Fatalf("%s: MinimalPorts at destination non-empty", topo.Name())
					}
					continue
				}
				if len(buf) == 0 {
					t.Fatalf("%s: no minimal port from %d to %d", topo.Name(), a, b)
				}
				d := topo.Distance(cur, dst)
				for _, p := range buf {
					next, ok := topo.Neighbor(cur, p)
					if !ok {
						t.Fatalf("%s: minimal port %d unconnected at %d", topo.Name(), p, a)
					}
					if nd := topo.Distance(next, dst); nd != d-1 {
						t.Fatalf("%s: port %d from %d to %d gives distance %d, want %d",
							topo.Name(), p, a, b, nd, d-1)
					}
				}
			}
		}
	}
}

func TestTorusEquidistantGivesBothDirections(t *testing.T) {
	g := NewTorus(4, 1)
	var buf []Port
	buf = g.MinimalPorts(g.Node(0), g.Node(2), buf)
	if len(buf) != 2 {
		t.Fatalf("k/2-apart nodes should have 2 minimal ports, got %v", buf)
	}
}

func TestMeshEdgePortsUnconnected(t *testing.T) {
	g := NewMesh(4, 2)
	if _, ok := g.Neighbor(g.Node(3, 0), PortFor(0, true)); ok {
		t.Error("+x port of east edge should be unconnected")
	}
	if _, ok := g.Neighbor(g.Node(0, 2), PortFor(0, false)); ok {
		t.Error("-x port of west edge should be unconnected")
	}
	if _, ok := g.Neighbor(g.Node(2, 3), PortFor(1, true)); ok {
		t.Error("+y port of north edge should be unconnected")
	}
}

func TestDatelineOnlyOnWrapChannels(t *testing.T) {
	g := NewTorus(4, 2)
	// +x dateline: nodes with x == 3.
	if !g.CrossesDateline(g.Node(3, 1), PortFor(0, true)) {
		t.Error("wrap +x channel not flagged as dateline")
	}
	if g.CrossesDateline(g.Node(2, 1), PortFor(0, true)) {
		t.Error("interior +x channel flagged as dateline")
	}
	// -x dateline: nodes with x == 0.
	if !g.CrossesDateline(g.Node(0, 2), PortFor(0, false)) {
		t.Error("wrap -x channel not flagged as dateline")
	}
	m := NewMesh(4, 2)
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		for p := Port(0); int(p) < m.Degree(); p++ {
			if m.CrossesDateline(n, p) {
				t.Fatal("mesh reported a dateline crossing")
			}
		}
	}
	h := NewHypercube(4)
	if h.CrossesDateline(3, 1) {
		t.Error("hypercube reported a dateline crossing")
	}
}

// Exactly one dateline channel per ring per direction.
func TestDatelineCountPerRing(t *testing.T) {
	g := NewTorus(8, 2)
	for d := 0; d < 2; d++ {
		for _, plus := range []bool{true, false} {
			// Walk the ring containing node 0 varying dimension d.
			count := 0
			for c := 0; c < g.Radix(); c++ {
				var n NodeID
				if d == 0 {
					n = g.Node(c, 0)
				} else {
					n = g.Node(0, c)
				}
				if g.CrossesDateline(n, PortFor(d, plus)) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("dim %d plus=%v: %d dateline channels per ring, want 1", d, plus, count)
			}
		}
	}
}

func TestAverageDistance(t *testing.T) {
	for _, topo := range allTopologies() {
		if topo.Nodes() > 128 {
			continue
		}
		sum, pairs := 0, 0
		for a := 0; a < topo.Nodes(); a++ {
			for b := 0; b < topo.Nodes(); b++ {
				if a == b {
					continue
				}
				sum += topo.Distance(NodeID(a), NodeID(b))
				pairs++
			}
		}
		want := float64(sum) / float64(pairs)
		if got := topo.AverageDistance(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: AverageDistance() = %v, brute force %v", topo.Name(), got, want)
		}
	}
}

func TestDiameterExact(t *testing.T) {
	for _, topo := range allTopologies() {
		if topo.Nodes() > 128 {
			continue
		}
		max := 0
		for a := 0; a < topo.Nodes(); a++ {
			for b := 0; b < topo.Nodes(); b++ {
				if d := topo.Distance(NodeID(a), NodeID(b)); d > max {
					max = d
				}
			}
		}
		if got := topo.Diameter(); got != max {
			t.Errorf("%s: Diameter() = %d, brute force %d", topo.Name(), got, max)
		}
	}
}

func TestPortHelpers(t *testing.T) {
	if PortDim(PortFor(3, true)) != 3 || !PortPlus(PortFor(3, true)) {
		t.Error("PortFor(3,true) round trip failed")
	}
	if PortDim(PortFor(2, false)) != 2 || PortPlus(PortFor(2, false)) {
		t.Error("PortFor(2,false) round trip failed")
	}
}

func TestQuickTorusDistanceSymmetry(t *testing.T) {
	g := NewTorus(16, 2)
	f := func(a, b uint16) bool {
		x := NodeID(int(a) % g.Nodes())
		y := NodeID(int(b) % g.Nodes())
		return g.Distance(x, y) == g.Distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHypercubeDistanceIsHamming(t *testing.T) {
	h := NewHypercube(10)
	f := func(a, b uint16) bool {
		x := NodeID(int(a) % h.Nodes())
		y := NodeID(int(b) % h.Nodes())
		want := 0
		for v := uint32(x ^ y); v != 0; v &= v - 1 {
			want++
		}
		return h.Distance(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"torus k=1":     func() { NewTorus(1, 2) },
		"mesh n=0":      func() { NewMesh(4, 0) },
		"hypercube n=0": func() { NewHypercube(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestByName: every (name, k, dims) a flag can carry is a topology or an
// error, never a constructor panic.
func TestByName(t *testing.T) {
	for _, c := range []struct {
		name    string
		k, dims int
		want    string // Name() of the result; "" means an error
	}{
		{"torus", 4, 2, "4x4 torus"},
		{"mesh", 3, 3, "3x3x3 mesh"},
		{"hypercube", 0, 4, "4-cube"}, // k is unused
		{"hypercube", 8, 30, "30-cube"},
		{"torus", 0, 2, ""},
		{"torus", 1, 2, ""},
		{"mesh", 1, 2, ""},
		{"mesh", 4, 0, ""},
		{"torus", 4, -1, ""},
		{"torus", 1 << 20, 2, ""}, // 2^40 nodes
		{"torus", math.MaxInt, 2, ""},
		{"hypercube", 8, 0, ""},
		{"hypercube", 8, 31, ""},
		{"hypercube", 8, 40, ""},
		{"ring", 4, 2, ""},
		{"", 4, 2, ""},
	} {
		topo, err := ByName(c.name, c.k, c.dims)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ByName(%q, %d, %d) = %s, want an error", c.name, c.k, c.dims, topo.Name())
		case c.want != "" && err != nil:
			t.Errorf("ByName(%q, %d, %d): %v", c.name, c.k, c.dims, err)
		case c.want != "" && topo.Name() != c.want:
			t.Errorf("ByName(%q, %d, %d) = %s, want %s", c.name, c.k, c.dims, topo.Name(), c.want)
		}
	}
}
