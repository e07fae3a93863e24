package router

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
)

// Checkpoint codec for the router. Every mutable field is encoded in a
// fixed order: per-input-VC FIFO contents (logical order) plus worm
// claim, allocation and purge state; the buffer organization's extra
// ledger (granted windows and grant rotation — empty for static FIFO);
// per-output round-robin pointers, link liveness and output VC
// window/credit/holder state; the allocation rotation; the event
// counters; and the livelock-watchdog watermark. Structural state
// (store geometry, port layout, the linkUp closure) is reconstructed by
// New from configuration and is not serialized.
//
// FIFOs are written front-to-back and restored into a freshly reset
// store: only the logical order is observable (push and pop address
// slots relative to the front), so a ring's phase is not serialized and
// every restored FIFO starts at offset zero — the encoding is
// independent of buffer history in every organization. The per-pool
// occupancy counters are likewise recomputed from the restored counts.
//
// LoadState range-validates everything a corrupt or hostile snapshot
// could use to break the kernel: per-VC counts against the
// organization's cap (Decoder.Count), aggregate occupancy against pool
// capacity (loadVC fails when a pool's budget is oversubscribed even
// though each VC's count was individually plausible), the granted-window
// ledger against [reserve, maxWindow], its VC's occupancy and the pool
// budget (loadLedger), output credit/window pairs against
// 0 <= credit <= window <= maxWindow, and every index Transmit,
// ApplySignal and allocation later dereference (a routed input's output
// VC, a held output's owner, the round-robin pointers) against the
// router's geometry. It ends with CheckInvariants, so a restored router
// is one a Config.Check cycle would accept.

// SaveState appends the router's mutable state to a snapshot.
func (r *Router) SaveState(e *snapshot.Encoder) {
	for i := range r.ins {
		v := &r.ins[i]
		e.Uvarint(uint64(v.count))
		r.store.saveVC(e, i, v.count)
		e.Bool(v.active)
		e.U64(uint64(v.worm))
		e.Bool(v.routed)
		e.Int(v.outP)
		e.Int(v.outV)
		e.U64(uint64(v.purgeWorm))
		e.Bool(v.purgeValid)
		e.Int(v.blocked)
	}
	r.store.saveLedger(e)
	for p := range r.outs {
		o := &r.outs[p]
		e.Int(o.rr)
		e.Bool(o.linkUp)
		for vc := range o.vcs {
			ov := &o.vcs[vc]
			e.Bool(ov.held)
			e.U64(uint64(ov.worm))
			e.Int(ov.ownerP)
			e.Int(ov.ownerV)
			e.Int(ov.credit)
			e.Int(ov.window)
		}
	}
	e.Int(r.allocRR)
	s := &r.stats
	e.Varint(s.FlitsMoved)
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
// total buffered count is recomputed from the restored FIFOs.
func (r *Router) LoadState(d *snapshot.Decoder) error {
	buffered := 0
	r.store.reset()
	for i := range r.ins {
		v := &r.ins[i]
		count := d.Count(r.store.capOf(i))
		if err := d.Err(); err != nil {
			return fmt.Errorf("router %d: input VC %d: %w", r.id, i, err)
		}
		if err := r.store.loadVC(d, i, count); err != nil {
			return fmt.Errorf("router %d: input VC %d: %w", r.id, i, err)
		}
		v.count = count
		buffered += count
		v.active = d.Bool()
		v.worm = flit.WormID(d.U64())
		v.routed = d.Bool()
		v.outP = d.Int()
		v.outV = d.Int()
		v.purgeWorm = flit.WormID(d.U64())
		v.purgeValid = d.Bool()
		v.blocked = d.Int()
		if v.routed && (v.outP < 0 || v.outP >= len(r.outs) || v.outV < 0 || v.outV >= len(r.outs[v.outP].vcs)) {
			return fmt.Errorf("router %d: input (%d,%d) routed to output (%d,%d), which does not exist",
				r.id, v.p, v.vc, v.outP, v.outV)
		}
	}
	if err := r.store.loadLedger(d, r.ins); err != nil {
		return fmt.Errorf("router %d: buffer store: %w", r.id, err)
	}
	wLo, wHi := r.cfg.initWindow(), r.cfg.maxWindow(r.deg)
	for p := range r.outs {
		o := &r.outs[p]
		o.rr = d.Int()
		o.linkUp = d.Bool()
		if o.rr < 0 || o.rr >= len(r.ins) {
			return fmt.Errorf("router %d: output %d round-robin pointer %d outside [0,%d)", r.id, p, o.rr, len(r.ins))
		}
		for vc := range o.vcs {
			ov := &o.vcs[vc]
			ov.held = d.Bool()
			ov.worm = flit.WormID(d.U64())
			ov.ownerP = d.Int()
			ov.ownerV = d.Int()
			ov.credit = d.Int()
			ov.window = d.Int()
			if d.Err() != nil {
				break
			}
			if !o.ejection && (ov.credit < 0 || ov.credit > ov.window || ov.window < wLo || ov.window > wHi) {
				return fmt.Errorf("router %d: output (%d,%d) credit %d / window %d outside bounds [%d,%d]",
					r.id, p, vc, ov.credit, ov.window, wLo, wHi)
			}
			if ov.held && !r.hasInput(ov.ownerP, ov.ownerV) {
				return fmt.Errorf("router %d: output (%d,%d) held by input (%d,%d), which does not exist",
					r.id, p, vc, ov.ownerP, ov.ownerV)
			}
		}
	}
	r.buffered = buffered
	r.allocRR = d.Int()
	s := &r.stats
	s.FlitsMoved = d.Varint()
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
	if r.allocRR < 0 {
		return fmt.Errorf("router %d: allocation rotation %d is negative", r.id, r.allocRR)
	}
	// The indices are in range; what is left is the consistency every
	// Config.Check cycle asserts — allocations and holders pointing at
	// each other, no flits on an idle input, the buffered total.
	return r.CheckInvariants()
}

// hasInput reports whether input VC (p, vc) exists.
func (r *Router) hasInput(p, vc int) bool {
	return p >= 0 && p < r.deg+r.cfg.InjectionChannels && vc >= 0 && vc < r.numVCs(p)
}
