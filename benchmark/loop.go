package main

import (
	"sort"
	"time"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/network"
	"crnet/internal/rng"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// The benchmark-owned cycle loop that sat16, sat64-shard2 and sparse512
// share: generate this cycle's messages, submit them, step the network,
// drain and account the deliveries. Generation is split from submission
// (the generators never look at the network, so the order of the two
// loops is immaterial) so that the traced run can time each layer call
// on its own.

// source produces the messages created at one cycle, in ascending node
// order, appended to out.
type source interface {
	tick(cycle int64, out []flit.Message) []flit.Message
	// ticks returns how many per-node generator calls one cycle makes.
	ticks() int
}

// uniformSource is the repository's open-loop Bernoulli generator over
// every node.
type uniformSource struct {
	gen   *traffic.Generator
	nodes int
}

func (u *uniformSource) tick(cycle int64, out []flit.Message) []flit.Message {
	for n := 0; n < u.nodes; n++ {
		if m, ok := u.gen.Tick(topology.NodeID(n), cycle); ok {
			out = append(out, m)
		}
	}
	return out
}

func (u *uniformSource) ticks() int { return u.nodes }

// sparseSource confines traffic to seeded square neighbourhoods of a big
// torus: each active node starts a message with probability p per cycle
// to a random other node of its own neighbourhood.
type sparseSource struct {
	r      *rng.Source
	active []topology.NodeID // ascending
	hood   []int32           // neighbourhood of active[i]
	member [][]topology.NodeID
	p      float64
	nextID flit.MessageID
	sent   []bool // sent[i]: active[i] has submitted at least once
}

// newSparseSource places hoods neighbourhoods of side x side nodes at
// seeded, non-overlapping cells of the torus's side-aligned grid.
func newSparseSource(g *topology.Grid, hoods, side int, p float64, seed uint64) *sparseSource {
	r := rng.New(seed)
	cells := g.Radix() / side
	perm := make([]int, cells*cells)
	r.Perm(perm)
	s := &sparseSource{r: r, p: p, member: make([][]topology.NodeID, hoods)}
	type placed struct {
		node topology.NodeID
		hood int32
	}
	var all []placed
	for h := 0; h < hoods; h++ {
		cx, cy := perm[h]%cells, perm[h]/cells
		for dy := 0; dy < side; dy++ {
			for dx := 0; dx < side; dx++ {
				n := g.Node(cx*side+dx, cy*side+dy)
				s.member[h] = append(s.member[h], n)
				all = append(all, placed{n, int32(h)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].node < all[j].node })
	for _, a := range all {
		s.active = append(s.active, a.node)
		s.hood = append(s.hood, a.hood)
	}
	s.sent = make([]bool, len(s.active))
	return s
}

func (s *sparseSource) tick(cycle int64, out []flit.Message) []flit.Message {
	for i, src := range s.active {
		if !s.r.Bernoulli(s.p) {
			continue
		}
		peers := s.member[s.hood[i]]
		dst := peers[s.r.Intn(len(peers))]
		for dst == src {
			dst = peers[s.r.Intn(len(peers))]
		}
		s.nextID++
		s.sent[i] = true
		out = append(out, flit.Message{ID: s.nextID, Src: src, Dst: dst, DataLen: msgLen, CreateTime: cycle})
	}
	return out
}

func (s *sparseSource) ticks() int { return len(s.active) }

// submitters returns how many distinct nodes have ever submitted.
func (s *sparseSource) submitters() int {
	n := 0
	for _, b := range s.sent {
		if b {
			n++
		}
	}
	return n
}

// observer folds deliveries into the simulated statistics and the
// delivery-stream fingerprint.
type observer struct {
	delivered int64
	corrupt   int64
	dataFlits int64
	latSum    int64
	lats      []int32
	hash      uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newObserver() *observer { return &observer{hash: fnvOffset64} }

func (o *observer) mix(v uint64) { o.hash = (o.hash ^ v) * fnvPrime64 }

func (o *observer) add(d core.Delivery) {
	o.delivered++
	ok := uint64(1)
	if !d.DataOK {
		o.corrupt++
		ok = 0
	}
	o.dataFlits += int64(d.DataLen)
	lat := d.Time - d.Stamps.Create
	o.latSum += lat
	o.lats = append(o.lats, int32(lat))
	o.mix(uint64(d.Msg))
	o.mix(uint64(d.Worm))
	o.mix(uint64(d.Src))
	o.mix(uint64(d.Time)<<1 | ok)
	o.mix(uint64(d.HeadArrived))
}

// fold32 folds a 64-bit stream hash to 32 bits, which a JSON number
// carries exactly.
func fold32(h uint64) float64 { return float64(uint32(h) ^ uint32(h>>32)) }

// cycleRec holds the traced run's per-cycle, per-layer durations in
// preallocated arrays (nanoseconds).
type cycleRec struct {
	tick, submit, step, drain, observe []int32
}

func newCycleRec(capacity int64) *cycleRec {
	mk := func() []int32 { return make([]int32, 0, capacity) }
	return &cycleRec{mk(), mk(), mk(), mk(), mk()}
}

// loop is one network under the benchmark's cycle loop.
type loop struct {
	net       *network.Network
	src       source
	obs       *observer
	msgs      []flit.Message
	submitted int64
	rec       *cycleRec // nil when untraced
}

// cycle advances one simulated cycle. inject false skips generation
// (the drain phase of sparse512).
func (l *loop) cycle(inject bool) {
	if l.rec != nil {
		l.cycleTraced(inject)
		return
	}
	if inject {
		l.msgs = l.src.tick(l.net.Cycle(), l.msgs[:0])
		for _, m := range l.msgs {
			l.net.SubmitMessage(m)
		}
		l.submitted += int64(len(l.msgs))
	}
	l.net.Step()
	for _, d := range l.net.DrainDeliveries() {
		l.obs.add(d)
	}
}

// cycleTraced is cycle with a clock read at every layer boundary.
func (l *loop) cycleTraced(inject bool) {
	t0 := time.Now()
	t1, t2 := t0, t0
	if inject {
		l.msgs = l.src.tick(l.net.Cycle(), l.msgs[:0])
		t1 = time.Now()
		for _, m := range l.msgs {
			l.net.SubmitMessage(m)
		}
		l.submitted += int64(len(l.msgs))
		t2 = time.Now()
	}
	l.net.Step()
	t3 := time.Now()
	ds := l.net.DrainDeliveries()
	t4 := time.Now()
	for _, d := range ds {
		l.obs.add(d)
	}
	t5 := time.Now()
	r := l.rec
	r.tick = append(r.tick, int32(t1.Sub(t0)))
	r.submit = append(r.submit, int32(t2.Sub(t1)))
	r.step = append(r.step, int32(t3.Sub(t2)))
	r.drain = append(r.drain, int32(t4.Sub(t3)))
	r.observe = append(r.observe, int32(t5.Sub(t4)))
}

const chunkCycles = 1024

// runCycles advances n cycles in chunks of 1024, emitting one chunk span
// with one aggregate child span per layer when tracing is on.
func (l *loop) runCycles(tr *tracer, parent int, n int64, inject bool) {
	for done := int64(0); done < n; {
		c := n - done
		if c > chunkCycles {
			c = chunkCycles
		}
		from := 0
		if l.rec != nil {
			from = len(l.rec.step)
		}
		start := time.Now()
		for i := int64(0); i < c; i++ {
			l.cycle(inject)
		}
		if l.rec != nil {
			l.emitChunk(tr, parent, start, time.Now(), from)
		}
		done += c
	}
}

// emitChunk lays the chunk's per-layer totals end to end inside the
// chunk span, so the chunk's self time is the loop's own glue.
func (l *loop) emitChunk(tr *tracer, parent int, start, end time.Time, from int) {
	id := tr.add("loop.chunk", parent, start, end, 0)
	at := start
	for _, layer := range []struct {
		name string
		ns   []int32
	}{
		{"traffic.tick", l.rec.tick[from:]},
		{"network.submit", l.rec.submit[from:]},
		{"network.step", l.rec.step[from:]},
		{"network.drain", l.rec.drain[from:]},
		{"bench.observe", l.rec.observe[from:]},
	} {
		d := time.Duration(sumNS(layer.ns))
		tr.add(layer.name, id, at, at.Add(d), int64(len(layer.ns)))
		at = at.Add(d)
	}
}

// clockReadsPerCycle is what cycleTraced adds over cycle.
const clockReadsPerCycle = 6
