// Package workload models closed-loop parallel applications on top of
// the network: communication phases whose next messages depend on
// previous deliveries. Where package traffic measures the network with
// open-loop synthetic loads, workload measures what the paper's
// introduction actually motivates — how long application communication
// patterns take end to end, where a blocked or lost message stalls the
// computation that waits for it.
//
// A Workload emits messages and consumes delivery notifications; the
// Driver (see driver.go) couples it to a network and reports completion
// time. All workloads are deterministic given their configuration.
package workload

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/topology"
)

// Workload is a closed-loop communication pattern.
//
// The driver calls Start once, then Deliver for every message delivered
// to its destination node; both return new messages to submit (the
// driver assigns IDs and stamps creation times). Done reports global
// completion.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Start returns the initial messages.
	Start() []Msg
	// Deliver notifies the workload that a previously returned message
	// reached its destination, and returns follow-up messages.
	Deliver(tag Tag) []Msg
	// Done reports whether the workload has finished.
	Done() bool
}

// Tag identifies a workload message across the network boundary.
type Tag int64

// Msg is a workload-level message request. DataLen is in flits.
type Msg struct {
	Tag     Tag
	Src     topology.NodeID
	Dst     topology.NodeID
	DataLen int
}

func (m Msg) validate(nodes int) error {
	if m.DataLen < 1 || m.DataLen > flit.MaxDataLen {
		return fmt.Errorf("workload: message tag %d has length %d", m.Tag, m.DataLen)
	}
	if m.Src == m.Dst || m.Src < 0 || int(m.Src) >= nodes || m.Dst < 0 || int(m.Dst) >= nodes {
		return fmt.Errorf("workload: message tag %d endpoints %d->%d invalid", m.Tag, m.Src, m.Dst)
	}
	return nil
}

// Stencil is an iterative nearest-neighbor halo exchange on a 2-D grid
// (the communication skeleton of Jacobi/CFD codes): every node sends a
// halo message to each grid neighbor each iteration and advances to the
// next iteration once it has sent and received all halos of the current
// one (bulk-synchronous per node, no global barrier).
type Stencil struct {
	Grid       *topology.Grid
	Iterations int
	HaloLen    int // flits per halo message

	node    []stencilNode
	done    int
	tagMeta map[Tag]stencilRef
	nextTag Tag
}

type stencilNode struct {
	iter     int // current iteration (0-based); == Iterations when finished
	sendAcks int // halo sends of this iteration confirmed delivered
	recvs    int // halo receives of this iteration
	pendSend []Msg
	finished bool
}

type stencilRef struct {
	src, dst topology.NodeID
	iter     int
}

// NewStencil constructs a stencil workload. It panics on invalid
// parameters (workloads are constructed from static experiment configs).
func NewStencil(g *topology.Grid, iterations, haloLen int) *Stencil {
	if g.Dims() != 2 {
		panic("workload: stencil needs a 2-D grid")
	}
	if iterations < 1 || haloLen < 1 {
		panic(fmt.Sprintf("workload: stencil iterations=%d haloLen=%d", iterations, haloLen))
	}
	return &Stencil{
		Grid:       g,
		Iterations: iterations,
		HaloLen:    haloLen,
		node:       make([]stencilNode, g.Nodes()),
		tagMeta:    make(map[Tag]stencilRef),
	}
}

// Name implements Workload.
func (s *Stencil) Name() string {
	return fmt.Sprintf("stencil(%dx%d,iters=%d,halo=%d)", s.Grid.Radix(), s.Grid.Radix(), s.Iterations, s.HaloLen)
}

// neighbors returns the distinct grid neighbors of n (4 on a torus;
// 2-4 on a mesh; duplicates removed on radix-2 tori).
func (s *Stencil) neighbors(n topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for p := topology.Port(0); int(p) < s.Grid.Degree(); p++ {
		next, ok := s.Grid.Neighbor(n, p)
		if !ok || next == n {
			continue
		}
		dup := false
		for _, o := range out {
			if o == next {
				dup = true
			}
		}
		if !dup {
			out = append(out, next)
		}
	}
	return out
}

// Start implements Workload.
func (s *Stencil) Start() []Msg {
	var msgs []Msg
	for n := range s.node {
		msgs = append(msgs, s.halosOf(topology.NodeID(n))...)
	}
	return msgs
}

// halosOf creates node n's halo messages for its current iteration.
func (s *Stencil) halosOf(n topology.NodeID) []Msg {
	var msgs []Msg
	for _, nb := range s.neighbors(n) {
		s.nextTag++
		tag := s.nextTag
		s.tagMeta[tag] = stencilRef{src: n, dst: nb, iter: s.node[n].iter}
		msgs = append(msgs, Msg{Tag: tag, Src: n, Dst: nb, DataLen: s.HaloLen})
	}
	return msgs
}

// Deliver implements Workload. Delivery of a halo counts as a receive at
// the destination and a send-completion at the source; a node advances
// when both counts reach its neighbor count for the iteration.
func (s *Stencil) Deliver(tag Tag) []Msg {
	ref, ok := s.tagMeta[tag]
	if !ok {
		panic(fmt.Sprintf("workload: unknown stencil tag %d", tag))
	}
	delete(s.tagMeta, tag)
	var out []Msg
	out = append(out, s.sendDone(ref.src)...)
	out = append(out, s.recvDone(ref.dst, ref.iter)...)
	return out
}

func (s *Stencil) sendDone(n topology.NodeID) []Msg {
	st := &s.node[n]
	st.sendAcks++
	return s.maybeAdvance(n)
}

func (s *Stencil) recvDone(n topology.NodeID, iter int) []Msg {
	st := &s.node[n]
	if iter != st.iter {
		// A neighbor raced ahead: its iteration-k+1 halo arrived while n
		// is still in iteration k. Buffer it by counting it when n gets
		// there — model with a simple carry.
		st.pendSend = append(st.pendSend, Msg{}) // counted below via len
		return nil
	}
	st.recvs++
	return s.maybeAdvance(n)
}

func (s *Stencil) maybeAdvance(n topology.NodeID) []Msg {
	st := &s.node[n]
	need := len(s.neighbors(n))
	for st.recvs >= need && st.sendAcks >= need {
		st.iter++
		st.recvs -= need
		st.sendAcks -= need
		// Apply halos that arrived early for the new iteration.
		early := len(st.pendSend)
		st.pendSend = st.pendSend[:0]
		st.recvs += early
		if st.iter >= s.Iterations {
			if !st.finished {
				st.finished = true
				s.done++
			}
			return nil
		}
		return s.halosOf(n)
	}
	return nil
}

// Done implements Workload.
func (s *Stencil) Done() bool { return s.done == len(s.node) }
