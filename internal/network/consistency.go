package network

import (
	"fmt"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/topology"
)

// checkNetwork is the one definition of a consistent network at a cycle
// boundary. LoadState ends with it, so a restore is accepted only if it
// is a state a Config.Check cycle accepts; finishStep runs it after
// every cycle under Config.Check, so a kernel bug surfaces in the cycle
// it happens. It reads only what exists — built components, busy links,
// the signal queue — neither allocates nor uses a map, and runs once per
// node range (shardCheck), like a kernel phase. It checks:
//
//  1. every built router on its own (Router.CheckInvariants);
//  2. every worm's chain of channels, pair by pair:
//     - a network input fed by no link hosts no worm;
//     - on every up link and VC, the upstream output's credit plus the
//     downstream input's occupancy plus the flit in flight is the
//     output's window, and the window is the downstream input's grant
//     (an unbuilt router counts as New left it). Under static FIFO
//     the window is BufDepth, so this is credit + buffered + in
//     flight == BufDepth. Under the pooled organizations a grant or
//     shrink moves the downstream grant at once and reaches the
//     upstream credit and window as one delta in the same cycle's
//     credit phase, and a kill's purge refunds exactly what it
//     dropped there too, so the same equality holds at every cycle
//     boundary;
//     - a busy link is up, its flit is well formed, left an output its
//     worm holds (unless it is the tail) on a built router, and lands
//     on an input that hosts its worm, absorbs it as a straggler, or —
//     for a head — is free or has a forward kill of its worm due next
//     cycle (signals precede arrivals);
//     - an injection input hosts only its channel's current worm, whose
//     last flit in it is the last one the channel injected — the tail
//     once the channel has finished — and a sending channel's worm
//     holds it;
//     - following a worm downstream from each place holding its flits,
//     through inputs it has drained, the next of its flits found is
//     the one before, and not a tail, and a receiver reached first
//     expects the one the holder sends next (a head at the front: no
//     assembly yet);
//     - every assembly's worm holds an ejection channel of its node;
//  3. every stamp record whose source no longer sends its attempt (the
//     source withdraws the record of an attempt torn down while it
//     sends) waits for a head still in the network: counted, there are
//     at least as many such heads, at inputs' fronts and on links, as
//     such records;
//  4. flit conservation (FlitLedger.Check).
//
// What it needs to be meaningful — counts within each ring, allocations
// naming outputs that exist, busy-link VCs the network has — the
// loaders check as they decode.
func (n *Network) checkNetwork() error {
	n.forkJoin(spCheck)
	awaited, carried := 0, 0
	for i := range n.shards {
		if err := n.shards[i].checkErr; err != nil {
			return err // the lowest range's, which a single range finds first
		}
		awaited += n.shards[i].awaited
		carried += n.shards[i].carried
	}
	if carried < awaited {
		return fmt.Errorf("%d stamp records wait for heads, %d of which are in the network", awaited, carried)
	}
	return n.Ledger().Check()
}

// shardCheck is one range's part of checkNetwork: its nodes, in order,
// and the flits on their links. It only reads, so ranges may run it at
// once.
func (n *Network) shardCheck(sh *shard) {
	sh.checkErr, sh.awaited, sh.carried = nil, 0, 0
	busy := busyCursor{shards: n.shards[sh.row-1 : sh.row]} // this range's busy list
	for id := sh.lo; id < sh.hi; id++ {
		if n.routers[id] == nil && n.injectors[id] == nil && n.receivers[id] == nil {
			continue // nothing built: as New left it
		}
		if sh.checkErr = n.checkNode(sh, id, &busy); sh.checkErr != nil {
			return
		}
	}
	if e := busy.next(); e != nil {
		sh.checkErr = n.strayFlit(e)
	}
}

// checkNode checks node id's router on its own and against its links,
// injector and receiver, and follows every worm it holds downstream.
// busy is at the first busy link of node id or a later node. It counts
// into sh the awaited stamp records of id's receiver and the heads
// carrying them at id's injection inputs, on its output links and at
// the inputs those feed.
func (n *Network) checkNode(sh *shard, id int, busy *busyCursor) error {
	r, in, rc := n.routers[id], n.injectors[id], n.receivers[id]
	for i := 0; rc != nil; i++ {
		worm, src, ok := rc.StampRecord(i)
		if !ok {
			break
		}
		if !n.sends(src, worm) {
			sh.awaited++
		}
	}
	if r == nil {
		for ch := 0; in != nil && ch < n.cfg.InjectionChannels; ch++ {
			if worm, _, sending, _ := in.Channel(ch); sending {
				return fmt.Errorf("node %d: injection channel %d sends worm %d into an unbuilt router", id, ch, worm)
			}
		}
		if rc != nil {
			if worm, ok := rc.Assembling(0); ok {
				return fmt.Errorf("node %d: receiver assembles worm %d without a router", id, worm)
			}
		}
		return nil // an unbuilt router is as New left it, and so are its links
	}
	if err := r.CheckInvariants(); err != nil {
		return err
	}
	for ch := 0; ch < n.cfg.InjectionChannels; ch++ {
		v := r.Input(r.InjPort(ch), 0)
		var worm flit.WormID
		next, sending, waiting := 0, false, false
		if in != nil {
			worm, next, sending, waiting = in.Channel(ch)
		}
		if v.Active && (in == nil || v.Worm != worm || waiting) || sending && !v.Active ||
			v.Count > 0 && (int(v.Back.Seq) != next-1 || v.Back.Tail == sending) {
			return fmt.Errorf("node %d: injection channel %d (worm %d, %d flits injected, sending %t, waiting %t) disagrees with its input (worm %d, active %t, %d flits)",
				id, ch, worm, next, sending, waiting, v.Worm, v.Active, v.Count)
		}
		n.countHead(sh, v.Front)
	}
	init := n.rcfg.InitWindow()
	pristine := router.Output{Credit: init, Window: init}
	for p := 0; p < n.deg; p++ {
		e, err := busy.at(n, linkRef{node: int32(id), port: int32(p)})
		if err != nil {
			return err
		}
		// Output p feeds input (nbPort, ·) of nb over link l, and the link
		// back from nb feeds input p.
		l := n.linkAt(id, p)
		nb, nbPort := int(l.toNode), int(l.toPort)
		down := n.routers[nb]
		fedIdle := l.exists && down == nil && n.linkAt(nb, nbPort).up()
		for vc := 0; vc < n.cfg.VCs; vc++ {
			if !l.exists {
				if v := r.Input(p, vc); v.Active {
					return fmt.Errorf("node %d: input (%d,%d) hosts worm %d but no link feeds it", id, p, vc, v.Worm)
				}
				continue
			}
			if fedIdle { // by an unbuilt router, which has sent nothing
				v := r.Input(p, vc)
				if err := checkCredit(nb, nbPort, vc, pristine, v.Count, v.Granted, nil); err != nil {
					return err
				}
			}
			o := r.Output(p, vc)
			d := router.Input{Granted: init}
			if down != nil {
				d = down.Input(nbPort, vc)
				n.countHead(sh, d.Front)
			}
			ev := e // the flit on vc, if any
			if e != nil && int(e.vc) != vc {
				ev = nil
			}
			if l.up() {
				if err := checkCredit(id, p, vc, o, d.Count, d.Granted, ev); err != nil {
					return err
				}
			}
			if ev != nil {
				if err := n.checkArrival(ev, l, o, d); err != nil {
					return err
				}
				n.countHead(sh, &ev.f)
			}
			if o.Held {
				if err := n.followOwner(r, in, id, p, vc, o, ev, d); err != nil {
					return err
				}
			}
		}
	}
	for ch := 0; ch < n.cfg.EjectionChannels; ch++ {
		if o := r.Output(r.EjPort(ch), 0); o.Held {
			if err := n.followOwner(r, in, id, r.EjPort(ch), 0, o, nil, router.Input{}); err != nil {
				return err
			}
		}
	}
	for i := 0; rc != nil; i++ {
		worm, ok := rc.Assembling(i)
		if !ok {
			break
		}
		held := false
		for ch := 0; ch < n.cfg.EjectionChannels; ch++ {
			o := r.Output(r.EjPort(ch), 0)
			held = held || o.Held && o.Worm == worm
		}
		if !held {
			return fmt.Errorf("node %d: receiver assembles worm %d, which holds no ejection channel", id, worm)
		}
	}
	return nil
}

// countHead counts f into sh.carried if it is a head whose stamp record
// waits at its receiver and its source no longer sends it.
func (n *Network) countHead(sh *shard, f *flit.Flit) {
	if f == nil || f.Kind != flit.Head || !f.WellFormed(n.nodes) {
		return // a malformed flit fails its own router's check
	}
	if rc := n.receivers[f.Dst]; rc != nil {
		if src, ok := rc.Awaits(f); ok && !n.sends(src, f.Worm) {
			sh.carried++
		}
	}
}

// sends reports whether node src's injector is sending worm.
func (n *Network) sends(src topology.NodeID, worm flit.WormID) bool {
	if src < 0 || int(src) >= n.nodes || n.injectors[src] == nil {
		return false
	}
	for ch := 0; ch < n.cfg.InjectionChannels; ch++ {
		if w, _, sending, _ := n.injectors[src].Channel(ch); sending && w == worm {
			return true
		}
	}
	return false
}

// checkCredit checks the credit relation of VC vc on the up link (a, p),
// which carries e (nil: no flit on vc): output o's credit plus the
// downstream occupancy count plus the flit in flight is o's window,
// which is the downstream grant.
func checkCredit(a, p, vc int, o router.Output, count, granted int, e *inFlight) error {
	inFlight := 0
	if e != nil {
		inFlight = 1
	}
	if o.Credit+count+inFlight != o.Window || o.Window != granted {
		return fmt.Errorf("link (%d,%d) VC %d: credit %d + buffered %d + in flight %d against window %d, granted %d",
			a, p, vc, o.Credit, count, inFlight, o.Window, granted)
	}
	return nil
}

// checkArrival checks the flit e carries over link l on its VC against
// the output o it left and the input d it lands on, and follows its
// worm on from d while d has drained it.
func (n *Network) checkArrival(e *inFlight, l *link, o router.Output, d router.Input) error {
	id, p, vc, f := int(e.ref.node), int(e.ref.port), int(e.vc), &e.f
	if !l.up() {
		return fmt.Errorf("link (%d,%d): busy while down", id, p)
	}
	if held := o.Held && o.Worm == f.Worm; !f.WellFormed(n.nodes) || held == f.Tail {
		return fmt.Errorf("link (%d,%d) VC %d carries %v from an output its worm holds: %t", id, p, vc, *f, held)
	}
	switch {
	case d.PurgeValid && d.Purge == f.Worm:
		return nil // absorbed on arrival
	case f.Kind == flit.Head:
		if d.Active && !n.killDue(int(l.toNode), int(l.toPort), vc, d.Worm) {
			return fmt.Errorf("link (%d,%d) VC %d carries %v to input (%d,%d) of worm %d", id, p, vc, *f, l.toNode, l.toPort, d.Worm)
		}
		return nil
	case !d.Active || d.Worm != f.Worm:
		return fmt.Errorf("link (%d,%d) VC %d carries %v to input (%d,%d), which does not host its worm", id, p, vc, *f, l.toNode, l.toPort)
	case d.Count > 0:
		if d.Back.Seq != f.Seq-1 || d.Back.Tail {
			return fmt.Errorf("link (%d,%d) VC %d carries %v behind %v", id, p, vc, *f, *d.Back)
		}
		return nil
	case d.OutP < 0: // which d's router, perhaps not yet checked, also fails on
		return fmt.Errorf("link (%d,%d) VC %d carries %v to input (%d,%d), which holds neither a flit nor an allocation", id, p, vc, *f, l.toNode, l.toPort)
	}
	return n.follow(f.Worm, int(f.Seq), int(l.toNode), d.OutP, d.OutV)
}

// followOwner follows the worm holding output (p, vc) of node id's
// router r downstream (see follow) from the input that holds it: from
// its front flit, or, while an injection input is empty, from its
// channel's next flit. An empty network input is passed through by the
// follow from upstream instead. e and d are the link's flit on vc and
// the input it feeds, for a network output.
func (n *Network) followOwner(r *router.Router, in *core.Injector, id, p, vc int, o router.Output, e *inFlight, d router.Input) error {
	owner, x := r.Input(o.OwnerP, o.OwnerV), 0
	switch {
	case owner.Count > 0:
		x = int(owner.Back.Seq) - (owner.Count - 1) // the front's, as its router's check found
	case o.OwnerP < n.deg:
		return nil
	default:
		_, x, _, _ = in.Channel(o.OwnerP - n.deg)
	}
	if r.IsEjection(p) {
		return n.checkReceiver(id, o.Worm, x)
	}
	on, err := n.hop(o.Worm, x, id, p, vc, e, d)
	if !on || err != nil {
		return err
	}
	return n.follow(o.Worm, x, int(n.linkAt(id, p).toNode), d.OutP, d.OutV)
}

// follow checks worm w downstream of a place that sends sequence number
// x next, from output (node, p, vc), which w holds: the first of w's
// flits found on the way, in flight or at the back of an input, is x-1
// and not the tail, and a receiver reached first expects x. Inputs w
// has drained are passed through; one that absorbs w's stragglers ends
// the way.
func (n *Network) follow(w flit.WormID, x, node, p, vc int) error {
	for hops := 0; hops <= n.nodes*n.deg*n.cfg.VCs; hops++ {
		if n.routers[node].IsEjection(p) {
			return n.checkReceiver(node, w, x)
		}
		l := n.linkAt(node, p)
		e := n.inFlightOn(node, p)
		if e != nil && int(e.vc) != vc {
			e = nil
		}
		var d router.Input // read only when hop needs it
		if down := n.routers[l.toNode]; down != nil && e == nil && x > 0 {
			d = down.Input(int(l.toPort), vc)
		}
		on, err := n.hop(w, x, node, p, vc, e, d)
		if !on || err != nil {
			return err
		}
		node, p, vc = int(l.toNode), d.OutP, d.OutV
	}
	return fmt.Errorf("worm %d: its channels form a cycle", w)
}

// hop is one step of follow: from output (node, p, vc), whose link
// carries e on vc (nil: nothing) into input d. It reports whether w
// has drained d, so that the way goes on from d's output.
func (n *Network) hop(w flit.WormID, x, node, p, vc int, e *inFlight, d router.Input) (bool, error) {
	if e != nil {
		if e.f.Worm != w || int(e.f.Seq) != x-1 || e.f.Tail {
			return false, fmt.Errorf("link (%d,%d) VC %d carries %v ahead of worm %d's flit %d", node, p, vc, e.f, w, x)
		}
		return false, nil
	}
	switch {
	case x == 0:
		return false, nil // the head has not left
	case d.Active && d.Worm == w && d.Count > 0:
		if int(d.Back.Seq) != x-1 || d.Back.Tail {
			return false, fmt.Errorf("worm %d sends flit %d next over output (%d,%d,%d), whose input ends at %v", w, x, node, p, vc, *d.Back)
		}
		return false, nil
	case d.Active && d.Worm == w && d.OutP >= 0: // unrouted only if d's router is yet to fail its check
		return true, nil
	case d.PurgeValid && d.Purge == w:
		return false, nil
	}
	return false, fmt.Errorf("worm %d has left output (%d,%d,%d), but the input it feeds neither hosts nor absorbs it", w, node, p, vc)
}

// checkReceiver checks that node's receiver expects flit x of worm w
// next: an assembly expecting x, or none while x is the head.
func (n *Network) checkReceiver(node int, w flit.WormID, x int) error {
	seq, ok := 0, false
	if rc := n.receivers[node]; rc != nil {
		seq, ok = rc.Expecting(w)
	}
	if ok != (x > 0) || seq != x && ok {
		return fmt.Errorf("node %d: worm %d sends flit %d next to its receiver, which expects %d (assembling %t)",
			node, w, x, seq, ok)
	}
	return nil
}

// inFlightOn returns the busy-list entry of link (node, p), or nil while
// the link is idle. At a cycle boundary every busy link has one entry,
// in its range's list, which ascends by (node, port).
func (n *Network) inFlightOn(node, p int) *inFlight {
	if !n.linkAt(node, p).busy {
		return nil
	}
	bl := n.shardOf(topology.NodeID(node)).busyLinks
	ref := linkRef{node: int32(node), port: int32(p)}
	lo, hi := 0, len(bl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := bl[m].ref; r.node < ref.node || r.node == ref.node && r.port < ref.port {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(bl) && bl[lo].ref == ref {
		return &bl[lo]
	}
	return nil
}

// at returns the busy-list entry of link ref, or nil while it is idle.
// Successive calls ascend in (node, port) order and visit every built
// router's links, so an entry passed over is a flit an unbuilt router
// sent, which is an error.
func (c *busyCursor) at(n *Network, ref linkRef) (*inFlight, error) {
	for c.si < len(c.shards) {
		bl := c.shards[c.si].busyLinks
		if c.i == len(bl) {
			c.si, c.i = c.si+1, 0
			continue
		}
		e := &bl[c.i]
		if e.ref.node > ref.node || e.ref.node == ref.node && e.ref.port > ref.port {
			return nil, nil
		}
		c.i++
		if e.ref != ref {
			return nil, n.strayFlit(e)
		}
		return e, nil
	}
	return nil, nil
}

// strayFlit reports busy-list entry e, which no built router's output
// accounts for.
func (n *Network) strayFlit(e *inFlight) error {
	if !n.linkAt(int(e.ref.node), int(e.ref.port)).up() {
		return fmt.Errorf("link (%d,%d): busy while down", e.ref.node, e.ref.port)
	}
	return fmt.Errorf("link (%d,%d) VC %d carries %v from an unbuilt router", e.ref.node, e.ref.port, e.vc, e.f)
}

// killDue reports whether a forward kill of worm is due at input (node,
// port, vc) next cycle.
func (n *Network) killDue(node, port, vc int, worm flit.WormID) bool {
	for i := range n.signals {
		s := &n.signals[i]
		if s.sig.Kind == router.KillFwd && int(s.node) == node && s.sig.Port == port && s.sig.VC == vc && s.sig.Worm == worm {
			return true
		}
	}
	return false
}
