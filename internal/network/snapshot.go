package network

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Checkpoint codec for the whole machine. SaveState captures every
// mutable field the cycle kernel carries from one Step to the next —
// link occupancy and burst state, in-flight tear-down signals, undrained
// deliveries, the busy-link and router/injector worklists, the hazard
// process, the fault-timeline cursor, the health latch, the global
// counters, and every router/injector/receiver that exists — so
// that a network restored from the snapshot steps forward
// byte-identically to one that never stopped (see
// TestResumeByteIdentical). What a Step fills and empties within itself
// — the credit matrix, the FKILL requests, the accepting-receiver set,
// the arrivals buckets — is empty whenever a caller can run, so it is
// not in the payload; LoadState clears it. So is every random draw: the
// kernel's draws are keyed by (seed, entity, cycle) (rng.At), so there is
// no generator position to carry.
//
// The payload begins with a fingerprint of the construction-time
// configuration. LoadState verifies it before touching any state: a
// snapshot can only be restored into a network built from the same
// Config, because everything structural (topology, routing algorithm,
// channel geometry, protocol parameters, fault timeline, seeds) is
// reconstructed by New rather than serialized.
//
// The same word names the payload's layout, because LoadState is handed
// a bare payload (the container's version field never reaches it), so
// the payload has to describe itself: SaveState writes the configuration
// digest continued over layoutSuffix, and a payload of any earlier
// layout — they opened with the bare digest, or one continued over an
// older suffix — fails the fingerprint gate like a foreign
// configuration. There is one layout: links as runs of pristine links
// between explicit records, and only the routers, injectors and
// receivers that exist (see saveLinks and saveNodes). What a node's
// components are is behaviour; whether they have been built yet is only
// bytes — an unbuilt component is exactly a pristine one.
//
// Hooks and the tracer are runtime attachments, not simulation state;
// they are preserved across LoadState.

// layoutSuffix continues the configuration digest into the fingerprint
// of the payload layout (snapshot.FormatVersion 6).
const layoutSuffix = " layout=6"

// ConfigFingerprint returns a 64-bit digest of the network's effective
// configuration (defaults filled in), covering every knob that shapes
// simulation behavior, continued over layoutSuffix: the word a payload
// opens with. Two networks with equal fingerprints are structurally
// interchangeable for checkpoint/restore. Shards is deliberately
// excluded: results are byte-identical for every range count, so a
// snapshot restores into a network partitioned differently from the one
// that wrote it — the per-range worklists are saved as their merged
// union in range order (see saveMergedNodeSets).
func (n *Network) ConfigFingerprint() uint64 {
	h := fnv.New64a()
	c := &n.cfg
	fmt.Fprintf(h, "topo=%s nodes=%d alg=%s proto=%d vcs=%d buf=%d inj=%d ej=%d",
		c.Topo.Name(), c.Topo.Nodes(), c.Alg.Name(), c.Protocol, c.VCs, c.BufDepth,
		c.InjectionChannels, c.EjectionChannels)
	if c.BufOrg != router.OrgStaticFIFO {
		// Appended conditionally so every static-FIFO fingerprint is
		// what it was before organizations existed. "rsv=0 share=0" are
		// the two retired sizing knobs at the only value they ever had;
		// the literal keeps files written before they went restorable.
		fmt.Fprintf(h, " buforg=%d rsv=0 share=0", c.BufOrg)
	}
	fmt.Fprintf(h, " timeout=%d rtimeout=%d backoff=%d/%d/%d maxattempts=%d",
		c.Timeout, c.RouterTimeout, c.Backoff.Kind, c.Backoff.Gap, c.Backoff.Cap, c.MaxAttempts)
	fmt.Fprintf(h, " misroute=%d/%d select=%d pad=%d rate=%g seed=%d check=%t",
		c.MisrouteAfter, c.MaxDetours, c.Select, c.PadAdjust, c.TransientRate, c.Seed, c.Check)
	if c.Burst != nil {
		fmt.Fprintf(h, " burst=%+v", *c.Burst)
	}
	if c.Hazard != nil {
		fmt.Fprintf(h, " hazard=%+v", *c.Hazard)
	}
	for _, ev := range c.Faults.Events() {
		fmt.Fprintf(h, " %s", ev)
	}
	io.WriteString(h, layoutSuffix)
	return h.Sum64()
}

// SaveState appends the network's complete mutable state to a snapshot.
// Call it between Step calls (any cycle boundary).
func (n *Network) SaveState(e *snapshot.Encoder) {
	e.U64(n.ConfigFingerprint())
	e.Varint(n.cycle)
	n.saveLinks(e)
	n.saveQueues(e)

	// The worklists live per range, holding only owned nodes, so
	// concatenating them in range order (contiguous ascending ranges) is
	// their merged, globally ordered union — the same bytes whatever the
	// partition, which is what lets LoadState deal them out to a
	// different one.
	n.saveBusyRefs(e)
	saveMergedNodeSets(e, n.shards, func(sh *shard) *nodeSet { return &sh.activeR })
	saveMergedNodeSets(e, n.shards, func(sh *shard) *nodeSet { return &sh.activeI })

	if n.hazard != nil {
		// Presence is config-determined (cfg.Hazard), which the
		// fingerprint already pins, so no presence flag is needed.
		n.hazard.SaveState(e)
	}
	e.Int(n.cfg.Faults.Cursor())
	if n.health != nil {
		e.String(n.health.Error())
	} else {
		e.String("")
	}
	e.Varint(n.lastProgress)
	e.Varint(n.lastFault)
	e.Varint(n.killsDropped)
	e.Varint(n.flitsDropped)
	e.Varint(n.flitsInjected)
	e.Varint(n.flitsEjected)
	e.Varint(n.failEvents)
	e.Varint(n.transients)

	n.saveNodes(e)
}

// Flag bits of an explicit link record.
const (
	linkFlagUp       = 1 << iota // the link is up
	linkFlagBusy                 // a flit is crossing: its VC and the flit follow
	linkFlagDownRefs             // failure causes are outstanding: their count follows
	linkFlagBad                  // the link's Gilbert-Elliott chain is in its bad state
	linkFlagsAll     = linkFlagUp | linkFlagBusy | linkFlagDownRefs | linkFlagBad
)

// pristine reports whether the link is as New left it, which is all a
// run of the link section says about the links it covers.
func (l *link) pristine() bool {
	return l.downRefs == 0 && !l.busy && !l.bad && l.flits == 0
}

// makePristine returns the link to the state New left it in.
func (l *link) makePristine() {
	l.downRefs, l.busy, l.bad, l.flits = 0, false, false, 0
}

// busyCursor walks the ranges' busy lists in range order, which at a
// cycle boundary is every busy link once, in ascending (node, port)
// order — the order the link section visits them.
type busyCursor struct {
	shards []shard
	si, i  int
}

// next returns the next entry, or nil past the last.
func (c *busyCursor) next() *inFlight {
	for c.si < len(c.shards) {
		if bl := c.shards[c.si].busyLinks; c.i < len(bl) {
			c.i++
			return &bl[c.i-1]
		}
		c.si, c.i = c.si+1, 0
	}
	return nil
}

// saveLinks writes the existing links in (node, port) order as
// alternating pristine-run lengths and explicit records:
//
//	uvarint  pristine links skipped before the next record
//	u8       flags (linkFlag*)
//	varint   downRefs       if linkFlagDownRefs
//	varint   vc, flit       if linkFlagBusy
//	varint   flits (traversal count)
//
// A busy record's VC and flit come from its busy-list entry. The
// section ends when every existing link is accounted for, so a trailing
// run is written only when it is non-empty and an untouched network
// costs one varint.
func (n *Network) saveLinks(e *snapshot.Encoder) {
	run := uint64(0)
	busy := busyCursor{shards: n.shards}
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			l := &n.links[id*n.deg+p]
			if !l.exists {
				continue
			}
			if l.pristine() {
				run++
				continue
			}
			e.Uvarint(run)
			run = 0
			var flags uint8
			if l.up() {
				flags |= linkFlagUp
			}
			if l.busy {
				flags |= linkFlagBusy
			}
			if l.downRefs != 0 {
				flags |= linkFlagDownRefs
			}
			if l.bad {
				flags |= linkFlagBad
			}
			e.U8(flags)
			if l.downRefs != 0 {
				e.Int(int(l.downRefs))
			}
			if l.busy {
				f := busy.next()
				if f == nil || f.ref != (linkRef{node: int32(id), port: int32(p)}) {
					panic(fmt.Sprintf("network: busy link (%d,%d) has no busy-list entry in order", id, p))
				}
				e.Int(int(f.vc))
				flit.PutFlit(e, &f.f)
			}
			e.Varint(l.flits)
		}
	}
	if run > 0 {
		e.Uvarint(run)
	}
}

// saveQueues writes the coordinator's pending tear-down signals and
// undrained deliveries.
func (n *Network) saveQueues(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(n.signals)))
	for _, s := range n.signals {
		e.Varint(int64(s.node))
		e.U8(uint8(s.sig.Kind))
		e.Int(s.sig.Port)
		e.Int(s.sig.VC)
		e.U64(uint64(s.sig.Worm))
	}
	e.Uvarint(uint64(len(n.deliveries)))
	for i := range n.deliveries {
		d := &n.deliveries[i]
		e.U64(uint64(d.Msg))
		e.U64(uint64(d.Worm))
		e.Varint(int64(d.Src))
		e.Int(d.DataLen)
		e.Varint(d.Time)
		e.Bool(d.DataOK)
		flit.PutStamps(e, d.Stamps)
		e.Varint(d.HeadArrived)
	}
}

// saveBusyRefs writes the busy-link section: the (node, port) of every
// busy-list entry, in range order. It repeats what the link section's
// busy flags say, and LoadState holds the two to each other.
func (n *Network) saveBusyRefs(e *snapshot.Encoder) {
	e.Uvarint(uint64(n.InFlightFlits()))
	for i := range n.shards {
		for _, f := range n.shards[i].busyLinks {
			e.Varint(int64(f.ref.node))
			e.Varint(int64(f.ref.port))
		}
	}
}

// Presence bits of a node run: which of a node's three lazily built
// components exist.
const (
	hasRouter = 1 << iota
	hasInjector
	hasReceiver
	presenceAll = hasRouter | hasInjector | hasReceiver
)

// presence returns node id's presence bits.
func (n *Network) presence(id int) uint8 {
	var m uint8
	if n.routers[id] != nil {
		m |= hasRouter
	}
	if n.injectors[id] != nil {
		m |= hasInjector
	}
	if n.receivers[id] != nil {
		m |= hasReceiver
	}
	return m
}

// saveNodes writes the components that exist, as runs of consecutive
// nodes that have the same ones built:
//
//	uvarint  run count
//	per run: uvarint first node id, uvarint node count, u8 presence,
//	         then per node the router, injector and receiver payloads
//	         its presence bits name, in that order
//
// Runs ascend and never touch a node with nothing built, so a fully
// built network is one run and a network with four thousand built nodes
// in a quarter of a million pays for the four thousand.
func (n *Network) saveNodes(e *snapshot.Encoder) {
	runs, prev := uint64(0), uint8(0)
	for id := 0; id < n.nodes; id++ {
		m := n.presence(id)
		if m != 0 && m != prev {
			runs++
		}
		prev = m
	}
	e.Uvarint(runs)
	for id := 0; id < n.nodes; {
		m := n.presence(id)
		if m == 0 {
			id++
			continue
		}
		end := id + 1
		for end < n.nodes && n.presence(end) == m {
			end++
		}
		e.Uvarint(uint64(id))
		e.Uvarint(uint64(end - id))
		e.U8(m)
		for ; id < end; id++ {
			if m&hasRouter != 0 {
				n.routers[id].SaveState(e)
			}
			if m&hasInjector != 0 {
				n.injectors[id].SaveState(e)
			}
			if m&hasReceiver != 0 {
				n.receivers[id].SaveState(e)
			}
		}
	}
}

// saveMergedNodeSets writes the range-partitioned node sets as one
// sorted union: each range's set is sorted in place (prepare is
// idempotent and deterministic — the next phase to walk the set would
// run it anyway), and range order concatenation of contiguous ascending
// ranges is globally sorted.
//
// The sets are not reconstructed from first principles on load because
// membership is not a pure function of the rest of the state (e.g. a
// stale FKILL leaves an idle injector in the set until its next tick
// prunes it), and any divergence would change worklist iteration
// against an unbroken run.
func saveMergedNodeSets(e *snapshot.Encoder, shards []shard, pick func(*shard) *nodeSet) {
	total := 0
	for i := range shards {
		s := pick(&shards[i])
		s.prepare()
		total += len(s.ids)
	}
	e.Uvarint(uint64(total))
	for i := range shards {
		for _, id := range pick(&shards[i]).ids {
			e.Varint(int64(id))
		}
	}
}

// loadNode decodes a node id that LoadState is about to index with,
// rejecting one outside the network.
func (n *Network) loadNode(d *snapshot.Decoder, what string) (topology.NodeID, error) {
	id := d.Varint()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if id < 0 || id >= int64(n.nodes) {
		return 0, fmt.Errorf("network: snapshot %s id %d outside [0,%d)", what, id, n.nodes)
	}
	return topology.NodeID(id), nil
}

// loadNodeSets decodes one merged node-set section, dealing each id to
// the range that owns it. The ids must ascend strictly, as
// saveMergedNodeSets writes them.
func (n *Network) loadNodeSets(d *snapshot.Decoder, what string, pick func(*shard) *nodeSet) error {
	count := d.Count(n.nodes)
	if err := d.Err(); err != nil {
		return fmt.Errorf("network: %s: %w", what, err)
	}
	prev := topology.NodeID(-1)
	for i := 0; i < count; i++ {
		id, err := n.loadNode(d, what)
		if err != nil {
			return err
		}
		if id <= prev {
			return fmt.Errorf("network: snapshot %s id %d does not ascend from its predecessor %d", what, id, prev)
		}
		prev = id
		pick(n.shardOf(id)).add(int32(id))
	}
	return nil
}

// checkWorklists rejects an activeR id with no router or an activeI id
// with no injector: the first Step would walk it into a nil component.
// It runs once the node section has built what the payload carries.
func (n *Network) checkWorklists() error {
	for i := range n.shards {
		sh := &n.shards[i]
		for _, id := range sh.activeR.ids {
			if n.routers[id] == nil {
				return fmt.Errorf("network: snapshot activeR id %d names a node with no router", id)
			}
		}
		for _, id := range sh.activeI.ids {
			if n.injectors[id] == nil {
				return fmt.Errorf("network: snapshot activeI id %d names a node with no injector", id)
			}
		}
	}
	return nil
}

// LoadState restores a state written by SaveState into a network built
// from the same configuration. The fingerprint is checked before any
// mutation; a mismatch (or any container-level corruption, which the
// snapshot file CRC rejects earlier) leaves the network untouched.
// After the fingerprint gate the decode mutates in place — the caller
// (see sim.Service.Restore and crsimd) treats any error as fatal for
// this network instance.
//
// The network ends up with exactly the components the payload carries:
// a slot the payload does not name is returned to nil, whatever the
// target had built, and is constructed on its first touch against the
// restored link state like any other lazy node.
func (n *Network) LoadState(d *snapshot.Decoder) error {
	fp := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if want := n.ConfigFingerprint(); fp != want {
		return fmt.Errorf("network: snapshot fingerprint %016x does not match configuration %016x", fp, want)
	}
	n.cycle = d.Varint()
	// The per-range queues and worklists are dealt out to their owners
	// as they decode — the busy lists from the link section — so empty
	// them all first.
	for i := range n.shards {
		n.shards[i].reset()
	}
	if err := n.loadLinks(d); err != nil {
		return fmt.Errorf("network: link state: %w", err)
	}
	if err := n.loadQueues(d); err != nil {
		return err
	}
	if err := n.loadBusyRefs(d); err != nil {
		return err
	}
	if err := n.loadNodeSets(d, "activeR", func(sh *shard) *nodeSet { return &sh.activeR }); err != nil {
		return err
	}
	if err := n.loadNodeSets(d, "activeI", func(sh *shard) *nodeSet { return &sh.activeI }); err != nil {
		return err
	}

	if n.hazard != nil {
		if err := n.hazard.LoadState(d); err != nil {
			return fmt.Errorf("network: hazard: %w", err)
		}
	}
	cursor := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if err := n.cfg.Faults.SetCursor(cursor); err != nil {
		return fmt.Errorf("network: fault timeline: %w", err)
	}
	if msg := d.String(); msg != "" {
		n.health = errors.New(msg)
	} else {
		n.health = nil
	}
	n.lastProgress = d.Varint()
	n.lastFault = d.Varint()
	n.killsDropped = d.Varint()
	n.flitsDropped = d.Varint()
	n.flitsInjected = d.Varint()
	n.flitsEjected = d.Varint()
	n.failEvents = d.Varint()
	n.transients = d.Varint()
	if err := d.Err(); err != nil {
		return err
	}

	if err := n.loadNodes(d); err != nil {
		return err
	}
	if err := n.checkWorklists(); err != nil {
		// Drop what the node section built, as an earlier rejection
		// would have left it unbuilt.
		clear(n.routers)
		clear(n.injectors)
		clear(n.receivers)
		return err
	}
	return nil
}

// loadQueues decodes what saveQueues wrote.
func (n *Network) loadQueues(d *snapshot.Decoder) error {
	nsig := d.Count(maxQueueItems)
	if err := d.Err(); err != nil {
		return err
	}
	n.signals = n.signals[:0]
	for i := 0; i < nsig; i++ {
		n.signals = append(n.signals, scheduledSignal{
			node: topology.NodeID(d.Varint()),
			sig: router.Signal{
				Kind: router.SignalKind(d.U8()),
				Port: d.Int(),
				VC:   d.Int(),
				Worm: flit.WormID(d.U64()),
			},
		})
	}
	ndel := d.Count(maxQueueItems)
	if err := d.Err(); err != nil {
		return err
	}
	n.deliveries = n.deliveries[:0]
	for i := 0; i < ndel; i++ {
		n.deliveries = append(n.deliveries, core.Delivery{
			Msg:         flit.MessageID(d.U64()),
			Worm:        flit.WormID(d.U64()),
			Src:         topology.NodeID(d.Varint()),
			DataLen:     d.Int(),
			Time:        d.Varint(),
			DataOK:      d.Bool(),
			Stamps:      flit.GetStamps(d),
			HeadArrived: d.Varint(),
		})
	}
	n.drained = n.drained[:0]
	return d.Err()
}

// loadBusyRefs decodes the busy-link section and joins it with the
// busy-list entries loadLinks built from the busy link records: the refs
// must ascend strictly, each must name a busy link, and every busy link
// must be named — exactly the cycle-boundary invariant the kernel keeps.
// A payload that broke it would restore cleanly and then double-book a
// link (or lose a flit) in the first Step.
func (n *Network) loadBusyRefs(d *snapshot.Decoder) error {
	nbusy := d.Count(maxQueueItems)
	if err := d.Err(); err != nil {
		return err
	}
	busy := busyCursor{shards: n.shards}
	prev := int64(-1) // the previous ref's link index
	for i := 0; i < nbusy; i++ {
		node, err := n.loadNode(d, "busy-link")
		if err != nil {
			return err
		}
		port := d.Varint()
		if port < 0 || port >= int64(n.deg) {
			return fmt.Errorf("network: snapshot busy-link port %d outside [0,%d)", port, n.deg)
		}
		idx := int64(node)*int64(n.deg) + port
		if idx <= prev {
			return fmt.Errorf("network: snapshot busy-link ref (%d,%d) does not ascend from its predecessor", node, port)
		}
		prev = idx
		if !n.links[idx].busy {
			return fmt.Errorf("network: snapshot busy-link ref (%d,%d) names a link that is not busy", node, port)
		}
		// The refs ascend and name busy links, so the next entry is this
		// ref's unless the payload skipped one.
		if f := busy.next(); f.ref != (linkRef{node: int32(node), port: int32(port)}) {
			return fmt.Errorf("network: snapshot busy link (%d,%d) is named by no busy-link ref", f.ref.node, f.ref.port)
		}
	}
	if f := busy.next(); f != nil {
		return fmt.Errorf("network: snapshot busy link (%d,%d) is named by no busy-link ref", f.ref.node, f.ref.port)
	}
	return nil
}

// loadLinks decodes the link section (see saveLinks), appending each
// busy record's VC and flit to its range's busy list. A link is up
// exactly when no failure cause is outstanding; a record that says
// otherwise, or counts causes outside [1, MaxInt16], would restore a
// link failLink and repairLink can never tear down or bring back. A
// busy link is up (failLink clears busy, and Transmit skips dead
// outputs) and carries a VC the network has. Only a network with
// bursty corruption has links in the bad state.
func (n *Network) loadLinks(d *snapshot.Decoder) error {
	// run counts the pristine links still to skip; atRun says the next
	// item in the stream is a run length.
	run, atRun := uint64(0), true
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			l := &n.links[id*n.deg+p]
			if !l.exists {
				continue
			}
			if atRun {
				run, atRun = d.Uvarint(), false
			}
			if run > 0 {
				run--
				l.makePristine()
				continue
			}
			atRun = true
			flags := d.U8()
			if flags&^linkFlagsAll != 0 {
				return fmt.Errorf("link (%d,%d): unknown flags %#02x", id, p, flags)
			}
			up := flags&linkFlagUp != 0
			l.busy = flags&linkFlagBusy != 0
			l.bad = flags&linkFlagBad != 0
			refs := 0
			if flags&linkFlagDownRefs != 0 {
				refs = d.Int()
			}
			vc, f := 0, flit.Flit{}
			if l.busy {
				vc = d.Int()
				f = flit.GetFlit(d)
			}
			l.flits = d.Varint()
			if err := d.Err(); err != nil {
				return fmt.Errorf("link (%d,%d): %w", id, p, err)
			}
			if refs < 0 || refs > math.MaxInt16 || up != (refs == 0) {
				return fmt.Errorf("link (%d,%d): up=%t with %d failure causes outstanding", id, p, up, refs)
			}
			l.downRefs = int16(refs)
			if l.bad && n.cfg.Burst == nil {
				return fmt.Errorf("link (%d,%d): burst state on a network without bursty corruption", id, p)
			}
			if !l.busy {
				continue
			}
			if !up {
				return fmt.Errorf("link (%d,%d): busy while down", id, p)
			}
			if vc < 0 || vc >= n.cfg.VCs {
				return fmt.Errorf("link (%d,%d): in-flight VC %d outside [0,%d)", id, p, vc, n.cfg.VCs)
			}
			sh := n.shardOf(topology.NodeID(id))
			sh.busyLinks = append(sh.busyLinks, inFlight{
				ref: linkRef{node: int32(id), port: int32(p)},
				vc:  uint8(vc),
				f:   f,
			})
		}
	}
	if run > 0 {
		return fmt.Errorf("pristine-link run extends %d links past the last link", run)
	}
	return d.Err()
}

// loadNodes decodes the component section (see saveNodes), dropping
// whatever the target had built and building what the section names.
func (n *Network) loadNodes(d *snapshot.Decoder) error {
	runs := d.Count(n.nodes)
	if err := d.Err(); err != nil {
		return fmt.Errorf("network: node runs: %w", err)
	}
	clear(n.routers)
	clear(n.injectors)
	clear(n.receivers)
	next := uint64(0) // the first node id no run has covered yet
	for i := 0; i < runs; i++ {
		first, count, mask := d.Uvarint(), d.Uvarint(), d.U8()
		if err := d.Err(); err != nil {
			return fmt.Errorf("network: node run %d: %w", i, err)
		}
		if first < next {
			return fmt.Errorf("network: node run %d starts at node id %d, before the end of the previous run (%d)", i, first, next)
		}
		if count == 0 || first >= uint64(n.nodes) || count > uint64(n.nodes)-first {
			return fmt.Errorf("network: node run %d covers %d node ids from %d, outside [0,%d)", i, count, first, n.nodes)
		}
		if mask == 0 || mask&^presenceAll != 0 {
			return fmt.Errorf("network: node run %d has presence bits %#02x, want a non-empty subset of %#02x", i, mask, presenceAll)
		}
		next = first + count
		for id := topology.NodeID(first); id < topology.NodeID(next); id++ {
			if mask&hasRouter != 0 {
				if err := n.routerAt(id).LoadState(d); err != nil {
					return err
				}
			}
			if mask&hasInjector != 0 {
				if err := n.injectorAt(id).LoadState(d); err != nil {
					return fmt.Errorf("network: injector %d: %w", id, err)
				}
			}
			if mask&hasReceiver != 0 {
				if err := n.receiverAt(id).LoadState(d); err != nil {
					return fmt.Errorf("network: receiver %d: %w", id, err)
				}
			}
		}
	}
	return d.Err()
}

// maxQueueItems bounds decoded queue lengths so a corrupt length field
// cannot drive a huge allocation before validation fails.
const maxQueueItems = 1 << 24
