package network

import (
	"cmp"
	"slices"
	"testing"

	"crnet/internal/core"
	"crnet/internal/rng"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Metamorphic relations (ROADMAP item 18): properties that need no
// reference implementation, only a second run of a transformed script.
// Each holds inside a stated configuration domain, at every range count.
// The scripts are soak_test.go's randomConfig configurations under
// lighter uniform traffic, with Check off (the relation is the oracle).
//
// Both relations exclude every draw keyed by an absolute cycle or node:
// transient corruption (link, cycle), the hazard and fault timelines,
// and the retransmission jitter (node × channel, cycle). A script whose
// first run retransmits anything is outside the domain and is skipped;
// each relation draws scripts until it has checked metamorphicScripts
// of them, and fails if that takes more than twice as many draws.

// metamorphicScripts is how many in-domain scripts each relation checks.
func metamorphicScripts() int {
	if testing.Short() {
		return 40
	}
	return 200
}

// metaRun runs script on cfg's network at the given range count,
// beginning offset idle cycles before the script's cycle 0, until it
// drains, and returns its deliveries and whether anything was
// retransmitted.
func metaRun(t *testing.T, cfg Config, script schedule, offset int64, shards int) ([]core.Delivery, bool) {
	t.Helper()
	cfg.Shards = shards
	n := New(cfg)
	var out []core.Delivery
	end := offset + int64(len(script))
	for c := int64(0); ; c++ {
		if c >= offset && c < end {
			for _, m := range script[c-offset] {
				m.CreateTime += offset
				n.SubmitMessage(m)
			}
		}
		n.Step()
		out = append(out, n.DrainDeliveries()...)
		if c >= end && n.QueuedMessages() == 0 && n.PendingWorms() == 0 && !anyBusy(n) {
			return out, n.InjectorStats().Retries > 0
		}
		if c > end+100000 {
			t.Fatalf("shards=%d: not idle %d cycles after the script", shards, c-end)
		}
	}
}

// metaConfig draws one script: a randomConfig configuration without
// transient corruption or the router-timeout ablation, and 150 cycles
// of uniform traffic at a tenth of its drawn load.
func metaConfig(r *rng.Source, seed uint64) (Config, schedule) {
	cfg, load, msgLen := randomConfig(r, seed)
	cfg.TransientRate, cfg.RouterTimeout, cfg.Check = 0, 0, false
	gen := traffic.NewGenerator(cfg.Topo, traffic.Uniform{Nodes: cfg.Topo.Nodes()}, load/10, msgLen, seed+77)
	return cfg, genSchedule(cfg.Topo, gen, 150)
}

// drawn reports whether draw i may be made with checked scripts checked
// so far: not once enough are, and never past twice as many draws.
func drawn(t *testing.T, i, checked int) bool {
	t.Helper()
	want := metamorphicScripts()
	if checked == want {
		t.Logf("%d scripts checked of %d drawn", checked, i)
		return false
	}
	if i == 2*want {
		t.Fatalf("only %d of %d scripts inside the domain", checked, i)
	}
	return true
}

// TestMetamorphicTimeShift: from an idle network, delaying a whole
// script by c cycles delays every delivery by c — its Time, HeadArrived
// and all four stamps — and changes nothing else, in the same order.
// Timeouts, backoff, padding and the stamp join use only differences of
// cycles; a stamp joined to the wrong attempt, or an absolute cycle
// leaking into any of them, breaks it. Domain: randomConfig's
// topologies, protocols (CR, FCR), channel and buffer geometry, timeouts
// and backoff, with no transient corruption, no router timeout, no
// fault or hazard process, and no retransmission in the unshifted run.
func TestMetamorphicTimeShift(t *testing.T) {
	r := rng.New(0x7153)
	checked := 0
	for i := 0; drawn(t, i, checked); i++ {
		cfg, script := metaConfig(r, uint64(i))
		shift := int64(1 + r.Intn(500))
		ref, retried := metaRun(t, cfg, script, 0, 1)
		if retried {
			continue
		}
		checked++
		for j := range ref {
			d := &ref[j]
			d.Time += shift
			d.HeadArrived += shift
			d.Stamps.Create += shift
			d.Stamps.FirstInject += shift
			d.Stamps.AttemptInject += shift
		}
		for _, shards := range goldenShards() {
			got, _ := metaRun(t, cfg, script, shift, shards)
			if !slices.Equal(got, ref) {
				t.Fatalf("script %d (%s, %s, shift %d), shards=%d: the shifted run's deliveries are not the first run's shifted",
					i, cfg.Topo.Name(), cfg.Protocol, shift, shards)
			}
		}
	}
}

// TestMetamorphicTranslation: on a torus, translating every message's
// source and destination by one vector translates the delivery stream —
// the same messages, attempts and cycles, from the translated sources.
// Within a cycle deliveries are drained in node order, which the
// translation permutes, so each cycle's deliveries are compared as a
// set. Domain: CR with minimal adaptive routing (no dateline) on
// randomConfig's channel and buffer geometry, timeouts and backoff, on a
// torus of its size; no transient corruption, router timeout, faults or
// hazard; and no retransmission in the untranslated run.
func TestMetamorphicTranslation(t *testing.T) {
	r := rng.New(0x7245)
	checked := 0
	for i := 0; drawn(t, i, checked); i++ {
		cfg, _ := metaConfig(r, uint64(i))
		k := 3 + r.Intn(4)
		torus := topology.NewTorus(k, 2)
		cfg.Topo, cfg.Protocol = torus, core.CR
		gen := traffic.NewGenerator(torus, traffic.Uniform{Nodes: torus.Nodes()}, 0.02+0.06*r.Float64(), 2+r.Intn(24), uint64(i)+91)
		script := genSchedule(torus, gen, 150)
		dx, dy := r.Intn(k), r.Intn(k)
		move := func(id topology.NodeID) topology.NodeID {
			return torus.Node((torus.Coord(id, 0)+dx)%k, (torus.Coord(id, 1)+dy)%k)
		}
		moved := make(schedule, len(script))
		for c, ms := range script {
			for _, m := range ms {
				m.Src, m.Dst = move(m.Src), move(m.Dst)
				moved[c] = append(moved[c], m)
			}
		}
		ref, retried := metaRun(t, cfg, script, 0, 1)
		if retried {
			continue
		}
		checked++
		for j := range ref {
			ref[j].Src = move(ref[j].Src)
		}
		sortByCycle(ref)
		for _, shards := range goldenShards() {
			got, _ := metaRun(t, cfg, moved, 0, shards)
			sortByCycle(got)
			if !slices.Equal(got, ref) {
				t.Fatalf("script %d (%s, vcs %d, depth %d, shift (%d,%d)), shards=%d: the translated run's deliveries are not the first run's translated",
					i, torus.Name(), cfg.VCs, cfg.BufDepth, dx, dy, shards)
			}
		}
	}
}

// sortByCycle orders deliveries by cycle, then by worm (one worm is
// delivered once), so the order within a cycle does not count.
func sortByCycle(ds []core.Delivery) {
	slices.SortFunc(ds, func(a, b core.Delivery) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Worm, b.Worm)
	})
}

// TestMetamorphicRelabeling: on an Irregular graph, renaming the nodes
// by a permutation — the same edge list in the same order with each
// endpoint renamed, so every router keeps its port order — renames the
// delivery stream: the same messages, attempts and cycles, from the
// renamed sources. Routing, arbitration and padding see only ports and
// distances, which the renaming keeps; the range partition and the
// router reserve's id blocks see ids, and must not matter. Domain: as
// TestMetamorphicTranslation's, on a random connected graph of 8–16
// nodes with up to six ports a node.
func TestMetamorphicRelabeling(t *testing.T) {
	r := rng.New(0x7e1a)
	checked := 0
	for i := 0; drawn(t, i, checked); i++ {
		cfg, _ := metaConfig(r, uint64(i))
		nodes := 8 + r.Intn(9)
		edges := randomGraph(r, nodes, 6)
		perm := make([]int, nodes)
		r.Perm(perm)
		rename := func(id topology.NodeID) topology.NodeID { return topology.NodeID(perm[id]) }
		renamed := make([]topology.Edge, len(edges))
		for j, e := range edges {
			renamed[j] = topology.Edge{A: rename(e.A), B: rename(e.B)}
		}
		graph := topology.MustIrregular("graph", nodes, edges)
		cfg.Topo, cfg.Protocol = graph, core.CR
		gen := traffic.NewGenerator(graph, traffic.Uniform{Nodes: nodes}, 0.02+0.06*r.Float64(), 2+r.Intn(24), uint64(i)+53)
		script := genSchedule(graph, gen, 150)
		moved := make(schedule, len(script))
		for c, ms := range script {
			for _, m := range ms {
				m.Src, m.Dst = rename(m.Src), rename(m.Dst)
				moved[c] = append(moved[c], m)
			}
		}
		ref, retried := metaRun(t, cfg, script, 0, 1)
		if retried {
			continue
		}
		checked++
		for j := range ref {
			ref[j].Src = rename(ref[j].Src)
		}
		sortByCycle(ref)
		cfg.Topo = topology.MustIrregular("graph", nodes, renamed)
		for _, shards := range goldenShards() {
			got, _ := metaRun(t, cfg, moved, 0, shards)
			sortByCycle(got)
			if !slices.Equal(got, ref) {
				t.Fatalf("script %d (%d nodes, %d edges, vcs %d, depth %d), shards=%d: the renamed run's deliveries are not the first run's renamed",
					i, nodes, len(edges), cfg.VCs, cfg.BufDepth, shards)
			}
		}
	}
}

// randomGraph returns the edges of a random connected graph on nodes
// nodes with at most maxDeg ports a node: a random spanning tree, then
// up to nodes more edges, in the order drawn.
func randomGraph(r *rng.Source, nodes, maxDeg int) []topology.Edge {
	deg := make([]int, nodes)
	linked := map[[2]int]bool{}
	var edges []topology.Edge
	link := func(a, b int) {
		if a == b || deg[a] == maxDeg || deg[b] == maxDeg || linked[[2]int{min(a, b), max(a, b)}] {
			return
		}
		linked[[2]int{min(a, b), max(a, b)}] = true
		deg[a]++
		deg[b]++
		edges = append(edges, topology.Edge{A: topology.NodeID(a), B: topology.NodeID(b)})
	}
	for v := 1; v < nodes; v++ {
		u := r.Intn(v)
		for deg[u] == maxDeg { // a tree on v nodes leaves one with room
			u = (u + 1) % v
		}
		link(v, u)
	}
	for j := 0; j < nodes; j++ {
		link(r.Intn(nodes), r.Intn(nodes))
	}
	return edges
}
