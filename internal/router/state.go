package router

import (
	"fmt"
	"math"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
)

// Checkpoint codec for the router. Every mutable field is encoded in a
// fixed order: per-input-VC FIFO contents (logical order) plus worm
// claim, allocation and purge state; the buffer organization's extra
// ledger (granted windows and grant rotation — empty for static FIFO);
// per-output round-robin pointers and output VC window/credit state; the
// allocation rotation; the event counters; and the livelock-watchdog
// watermark. Structural state (store geometry, port layout, the linkUp
// closure) is reconstructed by New from configuration and is not
// serialized.
//
// Each fact is stated once. Which output VCs are held, by which worm and
// input, is the routed inputs' allocations read backwards (held outputs
// and routed inputs are a bijection, which CheckInvariants asserts), so
// LoadState marks each routed input's output held by it; an unheld
// output's last worm and owner are never read (every read sits behind
// held) and restore as zero. An output's link liveness is the link
// record's, which the owner applies at construction (SetLinkDown for
// every dead link) before LoadState runs, so LoadState leaves it as
// construction and the owner set it.
//
// FIFOs are written front-to-back and restored into a freshly reset
// store: only the logical order is observable (push and pop address
// slots relative to the front), so a ring's phase is not serialized and
// every restored FIFO starts at offset zero — the encoding is
// independent of buffer history in every organization. The per-pool
// occupancy counters are likewise recomputed from the restored counts,
// and the waiting and holding masks from the inputs and holders in the
// loops that restore them; the route cache restores empty, and each
// waiting head routes afresh on its next visit (alloc.go).
//
// LoadState checks what decoding needs and a narrow field can hold:
// per-VC counts against the ring (Decoder.Count), every index Transmit,
// ApplySignal and allocation dereference (an input's output VC, the
// round-robin pointers), output credit/window pairs, and the constant
// credit and window of an ejection output. Whether the restored router
// is consistent — holders, the granted-window ledger, each input's
// flits — is CheckInvariants', which the network's consistency walk
// runs over every router once the whole payload is in.

// SaveState appends the router's mutable state to a snapshot.
func (r *Router) SaveState(e *snapshot.Encoder) {
	for i := range r.ins {
		v := &r.ins[i]
		e.Uvarint(uint64(v.count))
		r.store.saveVC(e, i, int(v.count))
		e.Bool(v.active)
		e.U64(uint64(v.worm))
		e.Int(int(v.outP))
		e.Int(int(v.outV))
		e.U64(uint64(v.purgeWorm))
		e.Bool(v.purgeValid)
		e.Int(int(v.blocked))
	}
	r.store.saveLedger(e)
	for p := range r.outs {
		o := &r.outs[p]
		e.Int(int(o.rr))
		for _, ov := range r.vcsOf(p) {
			e.Int(int(ov.credit))
			e.Int(int(ov.window))
		}
	}
	e.Int(r.allocRR)
	s := &r.stats
	e.Varint(r.flitsMoved)
	e.Varint(s.HeadersRouted)
	e.Varint(s.PDS)
	e.Varint(s.Misroutes)
	e.Varint(s.KillsFwd)
	e.Varint(s.RouterKills)
	e.Varint(s.KillsBwd)
	e.Varint(s.StaleSignals)
	e.Varint(s.PurgedFlits)
	e.Varint(s.Stragglers)
	e.Varint(s.HeaderFaults)
	e.Varint(s.BlockedHeaders)
	e.Int(r.maxHops)
	e.U64(uint64(r.maxHopsWorm))
}

// LoadState restores a state written by SaveState into a router of the
// same geometry (same topology, VC count, buffer depth and channel
// counts — guaranteed by the network's config fingerprint check). The
// total buffered count is recomputed from the restored FIFOs. Every
// value is range-checked as an int before it is narrowed into inVC or
// outVC, so an out-of-range one is an error, never a silent truncation;
// the ledger's windows and rotations, narrowed as they are read, are
// range-checked by CheckInvariants.
func (r *Router) LoadState(d *snapshot.Decoder) error {
	buffered := 0
	r.store.reset()
	clear(r.waiting)
	clear(r.holding)
	for i := range r.ins {
		v := &r.ins[i]
		count := d.Count(r.store.capOf(i))
		if err := d.Err(); err != nil {
			return fmt.Errorf("router %d: input VC %d: %w", r.id, i, err)
		}
		r.store.loadVC(d, i, count)
		v.count = int32(count)
		buffered += count
		v.active = d.Bool()
		v.worm = flit.WormID(d.U64())
		outP, outV := d.Int(), d.Int()
		v.purgeWorm = flit.WormID(d.U64())
		v.purgeValid = d.Bool()
		blocked := d.Int()
		if err := d.Err(); err != nil {
			return fmt.Errorf("router %d: input VC %d: %w", r.id, i, err)
		}
		if (outP != -1 || outV != -1) && (outP < 0 || outP >= len(r.outs) || outV < 0 || outV >= len(r.vcsOf(outP))) {
			return fmt.Errorf("router %d: input (%d,%d) routed to output (%d,%d), which does not exist",
				r.id, v.p, v.vc, outP, outV)
		}
		if blocked < 0 || blocked > math.MaxInt32 {
			return fmt.Errorf("router %d: input (%d,%d) blocked count %d outside [0,%d]",
				r.id, v.p, v.vc, blocked, math.MaxInt32)
		}
		v.outP, v.outV = int16(outP), int16(outV)
		v.blocked = int32(blocked)
		v.routeN = 0
		if v.active && !v.routed() {
			setBit(r.waiting, i)
		}
	}
	r.store.loadLedger(d)
	wLo, wHi := r.cfg.InitWindow(), r.cfg.maxWindow(r.deg)
	for p := range r.outs {
		o := &r.outs[p]
		rr := d.Int()
		if rr < 0 || rr >= len(r.ins) {
			return fmt.Errorf("router %d: output %d round-robin pointer %d outside [0,%d)", r.id, p, rr, len(r.ins))
		}
		o.rr = int32(rr)
		vcs := r.vcsOf(p)
		for vc := range vcs {
			credit, window := d.Int(), d.Int()
			if d.Err() != nil {
				break
			}
			if o.ejection && (credit != ejectCredit || window != ejectCredit) {
				return fmt.Errorf("router %d: ejection output (%d,%d) credit %d / window %d, want %d",
					r.id, p, vc, credit, window, ejectCredit)
			}
			if !o.ejection && (credit < 0 || credit > window || window < wLo || window > wHi) {
				return fmt.Errorf("router %d: output (%d,%d) credit %d / window %d outside bounds [%d,%d]",
					r.id, p, vc, credit, window, wLo, wHi)
			}
			vcs[vc] = outVC{credit: int32(credit), window: int32(window)}
		}
	}
	// The holders are the routed inputs' allocations read backwards; of
	// two inputs naming one output the later wins, and CheckInvariants
	// finds the other pointing at an output it does not hold.
	for i := range r.ins {
		if v := &r.ins[i]; v.routed() {
			ov := &r.vcsOf(int(v.outP))[v.outV]
			ov.held, ov.worm, ov.ownerP, ov.ownerV = true, v.worm, v.p, v.vc
			setBit(r.holding, int(v.outP))
		}
	}
	r.buffered = buffered
	r.allocRR = d.Int()
	s := &r.stats
	r.flitsMoved = d.Varint()
	s.HeadersRouted = d.Varint()
	s.PDS = d.Varint()
	s.Misroutes = d.Varint()
	s.KillsFwd = d.Varint()
	s.RouterKills = d.Varint()
	s.KillsBwd = d.Varint()
	s.StaleSignals = d.Varint()
	s.PurgedFlits = d.Varint()
	s.Stragglers = d.Varint()
	s.HeaderFaults = d.Varint()
	s.BlockedHeaders = d.Varint()
	r.maxHops = d.Int()
	r.maxHopsWorm = flit.WormID(d.U64())
	if err := d.Err(); err != nil {
		return fmt.Errorf("router %d: %w", r.id, err)
	}
	// A hop count is a flit's uint16 Hops field.
	if r.maxHops < 0 || r.maxHops > math.MaxUint16 {
		return fmt.Errorf("router %d: max hops %d outside [0,%d]", r.id, r.maxHops, math.MaxUint16)
	}
	return nil
}
