package network

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/topology"
)

// EventKind classifies observable network occurrences for tracing.
type EventKind uint8

// Event kinds, in rough lifecycle order.
const (
	// EvInject: a flit entered an injection channel at Node.
	EvInject EventKind = iota
	// EvArrive: a flit landed at Node's input (Port, VC).
	EvArrive
	// EvCorrupt: the fault process corrupted a flit on the link into
	// Node's (Port, VC).
	EvCorrupt
	// EvEject: a flit was delivered to Node's receiver (Port = ejection
	// channel index).
	EvEject
	// EvKill: a forward KILL signal was applied at Node's input (Port, VC).
	EvKill
	// EvFKill: a backward FKILL signal was applied at Node's output
	// (Port, VC).
	EvFKill
	// EvDeliver: the receiver at Node completed a message.
	EvDeliver
	// EvDiscard: the receiver at Node discarded a partial worm.
	EvDiscard
	// EvLinkDown: the link at (Node, Port) failed.
	EvLinkDown
	// EvLinkUp: the link at (Node, Port) was repaired.
	EvLinkUp
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "INJECT"
	case EvArrive:
		return "ARRIVE"
	case EvCorrupt:
		return "CORRUPT"
	case EvEject:
		return "EJECT"
	case EvKill:
		return "KILL"
	case EvFKill:
		return "FKILL"
	case EvDeliver:
		return "DELIVER"
	case EvDiscard:
		return "DISCARD"
	case EvLinkDown:
		return "LINKDOWN"
	case EvLinkUp:
		return "LINKUP"
	default:
		return fmt.Sprintf("Event(%d)", uint8(k))
	}
}

// Event is one observable occurrence. Seq identifies the flit involved
// (-1 for non-flit events).
type Event struct {
	Cycle int64
	Kind  EventKind
	Node  topology.NodeID
	Port  int
	VC    int
	Worm  flit.WormID
	Seq   int
}

// String renders the event for trace logs.
func (e Event) String() string {
	return fmt.Sprintf("[%6d] %-8s node=%-4d port=%d vc=%d worm=%d.%d seq=%d",
		e.Cycle, e.Kind, e.Node, e.Port, e.VC, e.Worm.Message(), e.Worm.Attempt(), e.Seq)
}

// Tracer receives every traced event; install with SetTracer. The
// tracer runs synchronously inside Step, on the goroutine that called
// it — keep it cheap. Events reach it in a deterministic order that
// does not depend on Config.Shards, but not at the instant they occur:
// each phase records, and the barrier that ends it replays (see
// mergeBarrier), so a tracer must not read network state.
type Tracer func(Event)

// SetTracer installs (or, with nil, removes) the event tracer. Tracing
// is off by default and costs nothing when off.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records an event from a coordinator phase.
func (n *Network) trace(kind EventKind, node topology.NodeID, port, vc int, worm flit.WormID, seq int) {
	n.traceTo(&n.sink, kind, node, port, vc, worm, seq)
}

// traceTo records an event in an execution context's sink. Phase bodies
// of different ranges may run concurrently and the tracer is one shared
// callback, so nothing calls it here: the coordinator replays the
// buffers, its own first and then the ranges' in range order, at the
// next barrier — the order one walk over all nodes would have emitted.
func (n *Network) traceTo(sk *sink, kind EventKind, node topology.NodeID, port, vc int, worm flit.WormID, seq int) {
	if n.tracer == nil {
		return
	}
	sk.events = append(sk.events, Event{Cycle: n.cycle, Kind: kind, Node: node, Port: port, VC: vc, Worm: worm, Seq: seq})
}

// flushEvents replays a sink's buffered trace events; coordinator only.
func (n *Network) flushEvents(sk *sink) {
	for _, ev := range sk.events {
		n.tracer(ev)
	}
	sk.events = sk.events[:0]
}
