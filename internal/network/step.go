package network

import (
	"fmt"
	"slices"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/topology"
)

// This file holds the coordinator's phases (signals, fault events) and
// the per-component bodies every range shares (transmitRouter,
// drainReceiver, routeEmits); the per-range phase bodies and the
// fork/join machinery are in shard.go, the phase order in engine.go.
//
// The kernel is activity-driven: instead of scanning every link, router,
// injector and receiver each cycle, each phase walks an incrementally
// maintained worklist owned by the node's range, so an idle cycle costs
// O(active components), not O(network).
//
//   - busyLinks: a range's output links carrying a flit, each entry
//     holding the flit itself and its downstream VC (inFlight; the link
//     only says busy), appended during transmit in ascending (node,
//     port) order — which is exactly the order a full scan would visit
//     them, so arrival order (and therefore every downstream result) is
//     unchanged. At every cycle boundary the entries are exactly the
//     busy links in that order; the checkpoint codec and InFlightFlits
//     rely on it.
//   - activeR: routers with at least one buffered flit. A router enters
//     when a flit lands (arrival or injection) and leaves when transmit
//     finds it drained. Routers without buffered flits provably no-op in
//     both allocate and transmit (every action there is gated on a
//     non-empty input VC), so skipping them is behavior-preserving.
//   - activeI: injectors with queued messages or an in-flight protocol
//     engine. An injector enters on SubmitMessage (and defensively on
//     FKilled) and leaves when every channel is idle and the queue is
//     empty — the state in which Tick provably does nothing.
//   - recvPend: receivers that accepted a flit this cycle; only they can
//     hold deliveries, so only they are drained.
//
// The node sets are bitmaps walked in ascending id (nodeSet.word), so
// phase order matches the full scan's and cannot depend on incidental
// insertion order. The scan-everything reference stepper that
// cross-checks the worklists cycle by cycle lives in reference_test.go.

// phaseFaultEvents applies the scheduled fault timeline, then — on its
// evaluation grid — the load-coupled hazard process. Timeline events
// always land before hazard events at the same cycle, and the hazard
// samples utilization signals collected this cycle, so the composite
// event order is deterministic. Runs on the coordinator: event order is
// timeline order, not node order.
func (n *Network) phaseFaultEvents() {
	for _, ev := range n.cfg.Faults.Pop(n.cycle) {
		n.applyFaultEvent(ev)
	}
	if n.hazard != nil && n.hazard.Due(n.cycle) {
		n.collectHazardSignals()
		for _, ev := range n.hazard.Evaluate(n.cycle, n.hazardFlits, n.hazardLoad) {
			n.applyFaultEvent(ev)
		}
	}
}

// applyFaultEvent applies one link or node failure/repair. A node event
// fails (or repairs) every link incident to the node, both directions;
// causes are reference counted, so a link is up only when every cause
// of its death has been repaired.
func (n *Network) applyFaultEvent(ev faults.Event) {
	n.lastFault = n.cycle
	if !ev.Up {
		n.failEvents++
	}
	switch {
	case ev.Kind == faults.NodeEvent && !ev.Up:
		n.forEachIncident(ev.Node, n.failLink)
	case ev.Kind == faults.NodeEvent && ev.Up:
		n.forEachIncident(ev.Node, n.repairLink)
	case ev.Up:
		n.repairLink(ev.Link.Node, ev.Link.Port)
	default:
		n.failLink(ev.Link.Node, ev.Link.Port)
	}
}

// collectHazardSignals refills the hazard scratch vectors from the live
// counters: cumulative traversals per link (the hazard differences them
// into a window utilization) and the buffer-occupancy fraction per
// router. A router never constructed has never buffered a flit, so it
// contributes zero load. Runs only on hazard evaluation cycles.
func (n *Network) collectHazardSignals() {
	for i, id := range n.hazardLinks {
		n.hazardFlits[i] = n.linkAt(id.Node, id.Port).flits
	}
	for id, r := range n.routers {
		if r == nil {
			n.hazardLoad[id] = 0
			continue
		}
		if cap := r.BufferCapacity(); cap > 0 {
			n.hazardLoad[id] = float64(r.BufferedFlits()) / float64(cap)
		} else {
			n.hazardLoad[id] = 0
		}
	}
}

// forEachIncident visits every existing directed link touching node:
// its own output links and each neighbor's link back toward it.
func (n *Network) forEachIncident(node int, fn func(id, p int)) {
	for p := 0; p < n.deg; p++ {
		l := n.linkAt(node, p)
		if !l.exists {
			continue
		}
		fn(node, p)
		fn(int(l.toNode), int(l.toPort))
	}
}

// failLink adds one failure cause to a link. On the first cause the link
// is actually torn down: the in-flight flit (if any) is dropped and
// every worm holding the link is killed — backward from the upstream
// side (so its source retries on another path) and forward from the
// downstream side (so the orphaned fragment is reclaimed). A router
// never constructed holds no worms and needs no sweep; it learns about
// the dead link at construction time (see routerAt).
func (n *Network) failLink(id, p int) {
	l := n.linkAt(id, p)
	if !l.exists {
		return
	}
	l.downRefs++
	if l.downRefs > 1 {
		return // already down for another reason
	}
	n.trace(EvLinkDown, topology.NodeID(id), p, 0, 0, -1)
	if l.busy {
		// The flit's busy-list entry stays; the arrivals prepass skips
		// entries whose link is no longer busy.
		l.busy = false
		n.flitsDropped++
	}
	if up := n.routers[id]; up != nil {
		up.SetLinkDown(p)
		// Tear down holders on the upstream side.
		n.wormBuf = up.HeldWorms(p, n.wormBuf[:0])
		for _, w := range n.wormBuf {
			sig := router.Signal{Kind: router.KillBwd, Port: p, VC: w.VC, Worm: w.Worm}
			n.emitBuf = up.ApplySignal(sig, n.emitBuf[:0])
			n.routeEmits(&n.sink, topology.NodeID(id), n.emitBuf)
		}
	}
	// Reclaim the orphaned fragments on the downstream side.
	if down := n.routers[l.toNode]; down != nil {
		n.wormBuf = down.ActiveWorms(int(l.toPort), n.wormBuf[:0])
		for _, w := range n.wormBuf {
			sig := router.Signal{Kind: router.KillFwd, Port: int(l.toPort), VC: w.VC, Worm: w.Worm}
			n.emitBuf = down.ApplySignal(sig, n.emitBuf[:0])
			n.routeEmits(&n.sink, topology.NodeID(l.toNode), n.emitBuf)
		}
	}
}

// repairLink removes one failure cause from a link; when the last cause
// is gone the link comes back up with empty buffers and full credits.
// Repairing an up link is a no-op.
func (n *Network) repairLink(id, p int) {
	l := n.linkAt(id, p)
	if !l.exists || l.downRefs == 0 {
		return
	}
	l.downRefs--
	if l.downRefs > 0 {
		return // still down for another reason
	}
	// Any worm still occupying the downstream input (possible only if a
	// tear-down signal racing the failure was dropped) is reclaimed now,
	// before the state reset.
	if down := n.routers[l.toNode]; down != nil {
		n.wormBuf = down.ActiveWorms(int(l.toPort), n.wormBuf[:0])
		for _, w := range n.wormBuf {
			sig := router.Signal{Kind: router.KillFwd, Port: int(l.toPort), VC: w.VC, Worm: w.Worm}
			n.emitBuf = down.ApplySignal(sig, n.emitBuf[:0])
			n.routeEmits(&n.sink, topology.NodeID(l.toNode), n.emitBuf)
		}
		down.ResetInput(int(l.toPort))
	}
	// Scrub credit refunds queued for the dead-era output: the repair
	// resets its credits to full, so applying them would overflow. They
	// sit in the owning range's column of the credit matrix; each filter
	// compacts in place onto the queue's own backing array.
	in := n.shardOf(topology.NodeID(id)).inCredits
	for r := range in {
		in[r] = scrubCredits(in[r], id, p)
	}
	if up := n.routers[id]; up != nil {
		up.SetLinkUp(p)
	}
	n.trace(EvLinkUp, topology.NodeID(id), p, 0, 0, -1)
}

// scrubCredits drops the refunds addressed to output (id, p) from q.
func scrubCredits(q []creditEvent, id, p int) []creditEvent {
	kept := q[:0]
	for _, c := range q {
		if int(c.node) != id || int(c.port) != p {
			kept = append(kept, c)
		}
	}
	return kept
}

// phaseSignals delivers the tear-down signals scheduled for this cycle.
// The queue is intrinsically activity-proportional: an idle network has
// no signals in flight. Runs on the coordinator: the queue's order is
// append order from last cycle's phases, not node order, so no spatial
// partition preserves it.
func (n *Network) phaseSignals() {
	n.sigNow, n.signals = n.signals, n.sigNow[:0]
	for _, s := range n.sigNow {
		if s.sig.Kind == router.KillFwd {
			n.trace(EvKill, s.node, s.sig.Port, s.sig.VC, s.sig.Worm, -1)
		} else {
			n.trace(EvFKill, s.node, s.sig.Port, s.sig.VC, s.sig.Worm, -1)
		}
		n.emitBuf = n.routerAt(s.node).ApplySignal(s.sig, n.emitBuf[:0])
		n.routeEmits(&n.sink, s.node, n.emitBuf)
	}
}

// transmitRouter runs one router's switch-transmission, wiring its flit
// movements into links, receivers, the busy-link worklist and the
// deferred credit queue — all through sh, the range that owns the node.
func (n *Network) transmitRouter(sh *shard, id int) bool {
	moved := false
	sk := &sh.sink
	r := n.routers[id]
	node := topology.NodeID(id)
	deg := r.Degree()
	r.TransmitRef(
		// Both callbacks are non-escaping: TransmitRef only calls them, so
		// the compiler stack-allocates the closures (the runtime
		// alloc-gate test holds Step at zero allocs/cycle with them).
		// f is the router ring slot the flit just left; it is copied once,
		// into the busy-link entry, or read in place by the receiver.
		func(outPort, outVC int, f *flit.Flit) {
			moved = true
			if outPort >= deg {
				n.traceTo(sk, EvEject, node, outPort-deg, 0, f.Worm, int(f.Seq))
				sk.flitsEjected++
				sh.recvPend.add(int32(id))
				n.receiverAt(node).Accept(outPort-deg, f, n.cycle)
				return
			}
			l := n.linkAt(id, outPort)
			if !l.exists {
				panic(fmt.Sprintf("network: transmit on missing link (%d,%d)", id, outPort))
			}
			if l.busy {
				panic(fmt.Sprintf("network: link (%d,%d) double-booked", id, outPort))
			}
			l.busy = true
			l.flits++
			k := len(sh.busyLinks)
			sh.busyLinks = slices.Grow(sh.busyLinks, 1)[:k+1]
			e := &sh.busyLinks[k]
			e.ref = linkRef{node: int32(id), port: int32(outPort)}
			e.vc = uint8(outVC)
			e.f = *f
		},
		func(inPort, inVC int) {
			upNode, upPort := n.upstreamOf(node, inPort)
			n.pushCredit(sk, upNode, upPort, inVC, 1)
		},
	)
	return moved
}

func (n *Network) drainReceiver(sk *sink, id int, rc *core.Receiver) {
	ds := rc.Drain()
	if len(ds) == 0 {
		return
	}
	if n.tracer != nil {
		for _, d := range ds {
			n.traceTo(sk, EvDeliver, topology.NodeID(id), 0, 0, d.Worm, -1)
		}
	}
	sk.deliveries = append(sk.deliveries, ds...)
}

// upstreamOf returns the node and output port feeding input port p of
// node id: the neighbor in direction p, through its reverse port —
// which is what New stored as node id's own link on port p (toNode,
// toPort), so the answer is one array read, not topology arithmetic.
func (n *Network) upstreamOf(id topology.NodeID, p int) (topology.NodeID, int) {
	l := n.linkAt(int(id), p)
	if !l.exists {
		panic(fmt.Sprintf("network: no upstream for (%d,%d)", id, p))
	}
	return topology.NodeID(l.toNode), int(l.toPort)
}

// loseHead queues the withdrawal of the stamp record of head f, dropped
// at node, in node's range; the next barrier hands it to f's receiver
// (Receiver.Lose). A source still sending the attempt withdraws the
// record as well, which finds it gone.
func (n *Network) loseHead(node topology.NodeID, f *flit.Flit) {
	sh := n.shardOf(node)
	sh.lostHeads = append(sh.lostHeads, *f)
}

// routeEmits delivers a router's tear-down side effects: further signal
// propagation (scheduled for next cycle), credit refunds (deferred to
// this cycle's credit phase), receiver discards and injector FKILL
// notifications (immediate). All queue appends go through sk — in a
// forked phase that is the emitting node's own range sink, merged into
// the coordinator's queues at the barrier.
func (n *Network) routeEmits(sk *sink, node topology.NodeID, emits []router.Emit) {
	r := n.routers[node]
	deg := r.Degree()
	for _, e := range emits {
		switch e.Kind {
		case router.EmitKillFwd:
			if e.Port >= deg {
				n.traceTo(sk, EvDiscard, node, e.Port-deg, 0, e.Worm, -1)
				n.receiverAt(node).Discard(e.Worm)
				continue
			}
			l := n.linkAt(int(node), e.Port)
			if !l.up() {
				// The downstream fragment is (or will be) reclaimed by
				// the dead-link sweep.
				sk.killsDropped++
				continue
			}
			sk.signals = append(sk.signals, scheduledSignal{
				node: topology.NodeID(l.toNode),
				sig:  router.Signal{Kind: router.KillFwd, Port: int(l.toPort), VC: e.VC, Worm: e.Worm},
			})
		case router.EmitKillBwd:
			if e.Port >= deg {
				// Reached the source injection channel.
				n.shardOf(node).activeI.add(int32(node))
				n.injectorAt(node).FKilled(e.Worm, n.cycle)
				continue
			}
			upNode, upPort := n.upstreamOf(node, e.Port)
			if !n.linkAt(int(upNode), upPort).up() {
				sk.killsDropped++
				continue
			}
			sk.signals = append(sk.signals, scheduledSignal{
				node: upNode,
				sig:  router.Signal{Kind: router.KillBwd, Port: upPort, VC: e.VC, Worm: e.Worm},
			})
		case router.EmitCredits:
			upNode, upPort := n.upstreamOf(node, e.Port)
			n.pushCredit(sk, upNode, upPort, e.VC, e.N)
		case router.EmitHeadLost:
			n.loseHead(node, &e.Head)
		default:
			panic(fmt.Sprintf("network: unknown emit kind %d", e.Kind))
		}
	}
}
