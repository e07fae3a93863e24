package network

import (
	"fmt"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/topology"
)

// Monitor observes the network after every cycle. The invariant
// watchdog (internal/invariant) implements it; the indirection keeps
// the network free of a dependency on its own checker.
type Monitor interface {
	// AfterStep runs after a cycle's phases complete, before the clock
	// advances. A non-nil error marks the network unhealthy: it is
	// latched (see Health) and the monitor is not called again.
	AfterStep(n *Network) error
}

// SetMonitor installs (or, with nil, removes) the per-cycle monitor.
// It is shorthand for setting Hooks.Monitor (see SetHooks), leaving the
// other hooks in place.
func (n *Network) SetMonitor(m Monitor) { n.hooks.Monitor = m }

// Health returns the first error the monitor reported, or nil while the
// run is healthy. Once set it never clears: stepping and snapshot
// restore both preserve the latch, so a violation lives as long as the
// network that produced it.
func (n *Network) Health() error { return n.health }

// FlitLedger is a snapshot of the network-wide flit conservation
// accounting. Every flit that enters at an injection port must leave at
// an ejection port, be purged by a tear-down, be absorbed as a
// tear-down straggler, or be dropped by a dying link — or still be in a
// buffer or on a link.
type FlitLedger struct {
	Injected   int64 // entered at injection ports
	Ejected    int64 // left at ejection ports
	Purged     int64 // discarded from buffers by tear-downs
	Stragglers int64 // in-flight flits absorbed after a purge
	Dropped    int64 // in-flight flits lost to link death
	Buffered   int64 // currently in router buffers
	InFlight   int64 // currently on links
}

// Check verifies conservation: all flits are accounted for exactly once.
func (l FlitLedger) Check() error {
	gone := l.Ejected + l.Purged + l.Stragglers + l.Dropped
	if l.Injected-gone != l.Buffered+l.InFlight {
		return fmt.Errorf(
			"flit conservation violated: injected %d - (ejected %d + purged %d + stragglers %d + dropped %d) = %d, but buffered %d + in-flight %d = %d",
			l.Injected, l.Ejected, l.Purged, l.Stragglers, l.Dropped, l.Injected-gone,
			l.Buffered, l.InFlight, l.Buffered+l.InFlight)
	}
	return nil
}

// Ledger captures the current conservation snapshot.
func (n *Network) Ledger() FlitLedger {
	l := FlitLedger{
		Injected: n.flitsInjected,
		Ejected:  n.flitsEjected,
		Dropped:  n.flitsDropped,
		InFlight: n.InFlightFlits(),
	}
	for _, r := range n.routers {
		if r == nil {
			continue // never constructed: never held a flit
		}
		s := r.Stats()
		l.Purged += s.PurgedFlits
		l.Stragglers += s.Stragglers
		l.Buffered += int64(r.BufferedFlits())
	}
	return l
}

// LastFaultCycle returns the cycle of the most recent fault-timeline
// event applied (fail or repair), or -1 if none has fired. The watchdog
// uses it to decide whether a message's lifetime overlapped a topology
// change.
func (n *Network) LastFaultCycle() int64 { return n.lastFault }

// FaultEventsApplied returns how many failure events (timeline plus
// hazard; repairs excluded) have been applied so far. The degradation
// controller reads it to bound failure density per control window.
func (n *Network) FaultEventsApplied() int64 { return n.failEvents }

// HazardDown returns how many entities the load-coupled hazard process
// currently holds down (0 without a hazard).
func (n *Network) HazardDown() int {
	if n.hazard == nil {
		return 0
	}
	return n.hazard.Down()
}

// HazardCounts returns the hazard process's cumulative failure and
// repair counts (0, 0 without a hazard).
func (n *Network) HazardCounts() (failures, repairs int64) {
	if n.hazard == nil {
		return 0, 0
	}
	return n.hazard.Failures(), n.hazard.Repairs()
}

// Connected reports whether dst is reachable from src over currently-up
// links (BFS). Used by the delivery-obligation check: a message may
// only fail if its endpoints are actually disconnected.
func (n *Network) Connected(src, dst topology.NodeID) bool {
	if src == dst {
		return true
	}
	visited := make([]bool, n.nodes)
	queue := []topology.NodeID{src}
	visited[src] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 0; p < n.deg; p++ {
			l := n.linkAt(int(cur), p)
			if !l.up() || visited[l.toNode] {
				continue
			}
			if l.toNode == int32(dst) {
				return true
			}
			visited[l.toNode] = true
			queue = append(queue, topology.NodeID(l.toNode))
		}
	}
	return false
}

// MaxHops returns the largest per-worm hop count any head flit has shown
// while claiming a channel, with the worm that set it — the livelock
// watchdog's raw signal.
func (n *Network) MaxHops() (int, flit.WormID) {
	best, worm := 0, flit.WormID(0)
	for _, r := range n.routers {
		if r == nil {
			continue
		}
		if h, w := r.MaxHops(); h > best {
			best, worm = h, w
		}
	}
	return best, worm
}

// BlockedWormAt is a blocked worm with its router, for the deadlock
// watchdog.
type BlockedWormAt struct {
	Node topology.NodeID
	router.BlockedWorm
}

// BlockedWorms returns every worm whose header has been blocked at
// output allocation for at least min consecutive cycles, in node order.
func (n *Network) BlockedWorms(min int) []BlockedWormAt {
	var out []BlockedWormAt
	var buf []router.BlockedWorm
	for id, r := range n.routers {
		if r == nil {
			continue
		}
		buf = r.BlockedWorms(min, buf[:0])
		for _, b := range buf {
			out = append(out, BlockedWormAt{Node: topology.NodeID(id), BlockedWorm: b})
		}
	}
	return out
}

// MessageFailures returns every abandoned-message record across the
// injectors, in node order (each injector caps its log; the Failed
// counter in InjectorStats is always exact).
func (n *Network) MessageFailures() []core.Failure {
	var out []core.Failure
	for _, in := range n.injectors {
		if in == nil {
			continue
		}
		out = append(out, in.Failures()...)
	}
	return out
}
