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
// deliveries, the hazard process, the fault-timeline cursor, the health
// latch, the global counters, every router/injector/receiver that
// exists, and the receivers' stamp records — so that a network restored
// from the snapshot steps forward byte-identically to one that never
// stopped (see TestResumeByteIdentical). What a Step fills and empties
// within itself — the credit matrix, the FKILL requests and stamp
// records in transit, the accepting-receiver set, the arrivals buckets
// — is empty whenever a caller can run, so it is not in the payload;
// LoadState clears it. So is every random draw: the
// kernel's draws are keyed by (seed, entity, cycle) (rng.At), so there is
// no generator position to carry.
//
// Each fact is stated once: nothing the payload carries is determined by
// another saved value, the configuration, or the components LoadState
// restores. The busy lists are rebuilt from the busy link records
// (loadLinks). The router and injector worklists are derived from the
// restored components (loadNodes): a router is on its range's list iff
// it buffers a flit, an injector iff it has work (hasWork). A live list
// can hold more — a router an FKILL purged after transmit, an idle
// injector that a stale FKILL scheduled — but
// such a member does nothing before the walk that prunes it (allocate
// and transmit act only on occupied inputs; an idle injector with an
// empty queue returns before it touches its port), so the derived lists
// step identically (TestResumeAcrossDerivedWorklists). A delivery's
// message id is its worm's.
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
// of the payload layout (snapshot.FormatVersion 8).
const layoutSuffix = " layout=8"

// ConfigFingerprint returns a 64-bit digest of the network's effective
// configuration (defaults filled in), covering every knob that shapes
// simulation behavior, continued over layoutSuffix: the word a payload
// opens with. Two networks with equal fingerprints are structurally
// interchangeable for checkpoint/restore. Shards is deliberately
// excluded: results are byte-identical for every range count, so a
// snapshot restores into a network partitioned differently from the one
// that wrote it — nothing in the payload is per range.
func (n *Network) ConfigFingerprint() uint64 { return n.fingerprint(layoutSuffix) }

// fingerprint is the configuration digest continued over layout.
func (n *Network) fingerprint(layout string) uint64 {
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
	io.WriteString(h, layout)
	return h.Sum64()
}

// SaveState appends the network's complete mutable state to a snapshot.
// Call it between Step calls (any cycle boundary). It reserves its
// previous payload's size and an eighth more up front: successive
// checkpoints of a network are much alike in size.
func (n *Network) SaveState(e *snapshot.Encoder) {
	start := e.Len()
	e.Grow(n.saveLen + n.saveLen/8)
	e.U64(n.ConfigFingerprint())
	e.Varint(n.cycle)
	n.saveLinks(e)
	n.saveQueues(e)
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
	n.saveStamps(e)
	n.saveLen = e.Len() - start
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
// undrained deliveries. A delivery's message id is its worm's, so it is
// not written.
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
		e.U64(uint64(d.Worm))
		e.Varint(int64(d.Src))
		e.Int(d.DataLen)
		e.Varint(d.Time)
		e.Bool(d.DataOK)
		flit.PutStamps(e, d.Stamps)
		e.Varint(d.HeadArrived)
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
	n.stamped = n.stamped[:0]
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
				rc := n.receivers[id]
				rc.SaveState(e)
				if rc.StampRecords() > 0 {
					n.stamped = append(n.stamped, int32(id))
				}
			}
		}
	}
}

// saveStamps writes the stamp records of the receivers that hold any,
// which at a checkpoint is only those with heads on their way:
//
//	per such receiver, ascending:
//	  uvarint  node id − the previous one's (the first's + 1), never 0
//	  then its records (core.Receiver.SaveStamps)
//	uvarint  0, ending the section
//
// A drained network's section is the one byte, whatever its size. The
// receivers are those saveNodes noted while it walked them, so a big
// network is not walked a second time.
func (n *Network) saveStamps(e *snapshot.Encoder) {
	prev := -1
	for _, id := range n.stamped {
		e.Uvarint(uint64(int(id) - prev))
		n.receivers[id].SaveStamps(e)
		prev = int(id)
	}
	e.Uvarint(0)
}

// loadStamps decodes what saveStamps wrote into receivers the node
// section built: a record names a worm bound for its receiver's node,
// which a save has built.
func (n *Network) loadStamps(d *snapshot.Decoder) error {
	for prev := -1; ; {
		step := d.Uvarint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("network: stamp records: %w", err)
		}
		if step == 0 {
			return nil
		}
		if step > uint64(n.nodes-1-prev) {
			return fmt.Errorf("network: stamp records name node %d + %d, not ascending within [0,%d)", prev, step, n.nodes)
		}
		id := prev + int(step)
		prev = id
		rc := n.receivers[id]
		if rc == nil {
			return fmt.Errorf("network: stamp records for node %d, whose receiver is not built", id)
		}
		if err := rc.LoadStamps(d); err != nil {
			return fmt.Errorf("network: receiver %d: %w", id, err)
		}
		if rc.StampRecords() == 0 {
			return fmt.Errorf("network: stamp records for node %d: none", id)
		}
	}
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
//
// The sections check only sizes, indices and shape as they decode; the
// restore ends with the consistency walk (checkNetwork), so it accepts
// exactly the states a Config.Check cycle accepts.
func (n *Network) LoadState(d *snapshot.Decoder) error {
	fp := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if want := n.ConfigFingerprint(); fp != want {
		return fmt.Errorf("network: snapshot fingerprint %016x does not match configuration %016x", fp, want)
	}
	n.cycle = d.Varint()
	// The per-range busy lists and worklists are dealt out to their
	// owners as they decode — the busy lists from the link section, the
	// worklists from the node section — so empty them all first.
	for i := range n.shards {
		n.shards[i].reset()
	}
	if err := n.loadLinks(d); err != nil {
		return fmt.Errorf("network: link state: %w", err)
	}
	if err := n.loadQueues(d); err != nil {
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
	if err := n.loadStamps(d); err != nil {
		return err
	}
	if err := n.checkNetwork(); err != nil {
		return fmt.Errorf("network: %w", err)
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
		s := scheduledSignal{
			node: topology.NodeID(d.Varint()),
			sig: router.Signal{
				Kind: router.SignalKind(d.U8()),
				Port: d.Int(),
				VC:   d.Int(),
				Worm: flit.WormID(d.U64()),
			},
		}
		if err := n.checkSignal(d, i, s); err != nil {
			return err
		}
		n.signals = append(n.signals, s)
	}
	ndel := d.Count(maxQueueItems)
	if err := d.Err(); err != nil {
		return err
	}
	n.deliveries = n.deliveries[:0]
	for i := 0; i < ndel; i++ {
		worm := flit.WormID(d.U64())
		n.deliveries = append(n.deliveries, core.Delivery{
			Msg:         worm.Message(),
			Worm:        worm,
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

// checkSignal rejects restored signal i unless it names a node and,
// for a KILL, an input channel of it or, for an FKILL, an output one:
// what ApplySignal indexes.
func (n *Network) checkSignal(d *snapshot.Decoder, i int, s scheduledSignal) error {
	if err := d.Err(); err != nil {
		return err
	}
	if s.node < 0 || int(s.node) >= n.nodes {
		return fmt.Errorf("network: signal %d names node %d outside [0,%d)", i, s.node, n.nodes)
	}
	local := n.cfg.InjectionChannels
	switch s.sig.Kind {
	case router.KillFwd:
	case router.KillBwd:
		local = n.cfg.EjectionChannels
	default:
		return fmt.Errorf("network: signal %d has unknown kind %d", i, s.sig.Kind)
	}
	vcs := 1
	if s.sig.Port < n.deg {
		vcs = n.cfg.VCs
	}
	if s.sig.Port < 0 || s.sig.Port >= n.deg+local || s.sig.VC < 0 || s.sig.VC >= vcs {
		return fmt.Errorf("network: signal %d (%s) names channel (%d,%d), which node %d does not have",
			i, s.sig.Kind, s.sig.Port, s.sig.VC, s.node)
	}
	return nil
}

// loadLinks decodes the link section (see saveLinks), appending each
// busy record's VC and flit to its range's busy list. A link is up
// exactly when no failure cause is outstanding; a record that says
// otherwise, or counts causes outside [1, MaxInt16], would restore a
// link failLink and repairLink can never tear down or bring back. A
// busy link carries a VC the network has; that it is up, and that its
// flit fits the channels on either side, is the walk's (checkNetwork).
// Only a network with bursty corruption has links in the bad state.
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
				if !l.pristine() { // a fresh target's links are: leave their lines clean
					l.makePristine()
				}
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
// Each router is built after loadLinks, so construction applies the
// restored link liveness to it (routerAt). The worklists are derived
// here, right after each component's LoadState: a router joins its
// range's activeR iff it buffers a flit, an injector activeI iff it has
// work — the members a live list must hold, and all the members that
// act (see the file comment).
func (n *Network) loadNodes(d *snapshot.Decoder) error {
	runs := d.Count(n.nodes)
	if err := d.Err(); err != nil {
		return fmt.Errorf("network: node runs: %w", err)
	}
	clear(n.routers)
	clear(n.injectors)
	clear(n.receivers)
	for i := range n.shards {
		// A reservation must hold every unbuilt router of its block, so
		// it goes with the routers it was adopted from; the dropped
		// routers are discarded, not returned to a reserve.
		clear(n.shards[i].reserve)
	}
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
			sh := n.shardOf(id)
			if mask&hasRouter != 0 {
				r := n.routerAt(id)
				if err := r.LoadState(d); err != nil {
					return err
				}
				if r.Busy() {
					sh.activeR.add(int32(id))
				}
			}
			if mask&hasInjector != 0 {
				in := n.injectorAt(id)
				if err := in.LoadState(d); err != nil {
					return fmt.Errorf("network: injector %d: %w", id, err)
				}
				if hasWork(in) {
					sh.activeI.add(int32(id))
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
