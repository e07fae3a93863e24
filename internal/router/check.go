package router

import (
	"fmt"

	"crnet/internal/flit"
)

// CheckInvariants verifies the router's internal consistency and returns
// a descriptive error on the first violation. The network's consistency
// walk starts with it on every router, after a restore and, under
// Config.Check, after every cycle.
//
// Invariants:
//   - buffer occupancy within [0, the VC's organization cap]
//   - network output credits within [0, window]; static FIFO pins the
//     window at BufDepth, the shared organizations bound it by
//     [reserve, maxWindow]. The lower bound is unconditional because
//     windows only shrink on a worm's normal release, which is
//     synchronous with its final tail refund (kill teardowns freeze
//     the tenure instead of shrinking — see Router.purge).
//   - every held output VC's owner input VC is active, claims the same
//     worm, and points back at the output; its link is alive (a link's
//     death tears its holders down, and a claim needs a live link)
//   - every routed input VC's allocated output VC is held by its worm
//   - inactive input VCs hold no flits and no allocation; an active one
//     that is unrouted has its worm's head at the front
//   - an input VC's flits are its worm's and well formed, their
//     sequence numbers run contiguously from front to back, and only
//     the back flit may be a tail
//   - the cached buffered-flit counter matches the sum over input VCs
//   - the waiting mask names exactly the active unrouted input VCs, the
//     holding mask exactly the output ports with a held VC, and each
//     waiting head's cached route is the one Route gives now
//   - the store's ledger audit passes (shared organizations): granted
//     windows within bounds and covering their occupancy, per-pool sums
//     within the budget, and flit conservation (per pool, Σ occupancy of
//     its VCs == the pool's occupancy counter)
func (r *Router) CheckInvariants() error {
	total, nodes := 0, r.topo.Nodes()
	for i := range r.ins {
		v := &r.ins[i]
		total += int(v.count)
		if hasBit(r.waiting, i) != (v.active && !v.routed()) {
			return fmt.Errorf("router %d: input (%d,%d) waiting bit %t, active %t, routed %t",
				r.id, v.p, v.vc, hasBit(r.waiting, i), v.active, v.routed())
		}
		if v.count < 0 || int(v.count) > r.store.capOf(i) {
			return fmt.Errorf("router %d: input (%d,%d) occupancy %d", r.id, v.p, v.vc, v.count)
		}
		if !v.active {
			if v.count != 0 {
				return fmt.Errorf("router %d: inactive input (%d,%d) holds %d flits", r.id, v.p, v.vc, v.count)
			}
			if v.routed() {
				return fmt.Errorf("router %d: inactive input (%d,%d) holds an allocation", r.id, v.p, v.vc)
			}
			continue
		}
		if err := r.checkFlits(v, nodes); err != nil {
			return err
		}
		if !v.routed() && v.routeN > 0 && !r.routeFresh(v) {
			return fmt.Errorf("router %d: input (%d,%d) caches a stale route %v", r.id, v.p, v.vc, r.route(v))
		}
		if v.routed() {
			o := &r.vcsOf(int(v.outP))[v.outV]
			if !o.held || o.worm != v.worm || o.ownerP != v.p || o.ownerV != v.vc {
				return fmt.Errorf("router %d: input (%d,%d) allocation to (%d,%d) inconsistent",
					r.id, v.p, v.vc, v.outP, v.outV)
			}
		}
	}
	if total != r.buffered {
		return fmt.Errorf("router %d: buffered counter %d, actual %d", r.id, r.buffered, total)
	}
	wLo, wHi := int32(r.cfg.InitWindow()), int32(r.cfg.maxWindow(r.deg))
	for p := range r.outs {
		out := &r.outs[p]
		vcs := r.vcsOf(p)
		for vc := range vcs {
			o := &vcs[vc]
			if !out.ejection && (o.window < wLo || o.window > wHi) {
				return fmt.Errorf("router %d: output (%d,%d) window %d outside [%d,%d]",
					r.id, p, vc, o.window, wLo, wHi)
			}
			if !out.ejection && (o.credit < 0 || o.credit > o.window) {
				return fmt.Errorf("router %d: output (%d,%d) credit %d with window %d",
					r.id, p, vc, o.credit, o.window)
			}
			if o.held && !out.ejection && !out.linkUp {
				return fmt.Errorf("router %d: output (%d,%d) held on a dead link", r.id, p, vc)
			}
			if o.held {
				v := r.in(int(o.ownerP), int(o.ownerV))
				if !v.active || v.worm != o.worm || int(v.outP) != p || int(v.outV) != vc {
					return fmt.Errorf("router %d: output (%d,%d) owner (%d,%d) inconsistent",
						r.id, p, vc, o.ownerP, o.ownerV)
				}
			}
		}
		if hasBit(r.holding, p) != r.holds(p) {
			return fmt.Errorf("router %d: output port %d holding bit %t, held VCs %t", r.id, p, hasBit(r.holding, p), r.holds(p))
		}
	}
	if strayBits(r.waiting, len(r.ins)) || strayBits(r.holding, len(r.outs)) {
		return fmt.Errorf("router %d: a mask sets bits past its last input or output", r.id)
	}
	if err := r.store.check(r.ins); err != nil {
		return fmt.Errorf("router %d: buffer store: %w", r.id, err)
	}
	return nil
}

// strayBits reports whether mask, over n indices, sets a bit at n or
// above.
func strayBits(mask []uint16, n int) bool {
	return n%16 != 0 && mask[len(mask)-1]>>(n%16) != 0
}

// checkFlits audits the flits buffered in active input v: each is v's
// worm's, well formed, in sequence from front to back, a tail only at
// the back. An unrouted input has its head at the front, waiting for
// allocation.
func (r *Router) checkFlits(v *inVC, nodes int) error {
	if !v.routed() && v.count == 0 {
		return fmt.Errorf("router %d: active input (%d,%d) holds neither a flit nor an allocation", r.id, v.p, v.vc)
	}
	first := int(r.front(v).Seq)
	for k := 0; k < int(v.count); k++ {
		f := r.store.at(int(v.idx), k)
		if f.Worm != v.worm || int(f.Seq) != first+k || !f.WellFormed(nodes) || f.Tail && k != int(v.count)-1 {
			return fmt.Errorf("router %d: input (%d,%d) of worm %d holds %v at position %d", r.id, v.p, v.vc, v.worm, *f, k)
		}
	}
	if !v.routed() && first != 0 {
		return fmt.Errorf("router %d: unrouted input (%d,%d) is fronted by %v", r.id, v.p, v.vc, *r.front(v))
	}
	return nil
}

// BufferedAt returns the buffered flit count of input (p, vc).
func (r *Router) BufferedAt(p, vc int) int { return int(r.in(p, vc).count) }

// Input is one input VC as the network's consistency walk reads it.
// Its flits are Front to Back, Count of them, whose sequence numbers
// (once CheckInvariants passes) count up by one.
type Input struct {
	Worm flit.WormID
	// Purge is the worm whose stragglers the VC absorbs, when PurgeValid.
	Purge       flit.WormID
	Front, Back *flit.Flit // nil while empty
	Count       int
	// OutP, OutV is the allocated output VC, (-1,-1) while unrouted.
	OutP, OutV int
	// Granted is the window the VC grants its upstream output: BufDepth
	// unpooled, the ledger's grant pooled.
	Granted    int
	Active     bool
	PurgeValid bool
}

// Input returns input VC (p, vc)'s state.
func (r *Router) Input(p, vc int) Input {
	v := r.in(p, vc)
	in := Input{
		Worm: v.worm, Purge: v.purgeWorm, Count: int(v.count),
		OutP: int(v.outP), OutV: int(v.outV), Granted: r.store.depth,
		Active: v.active, PurgeValid: v.purgeValid,
	}
	if int(v.idx) < r.store.nPooled {
		in.Granted = int(r.store.granted[v.idx])
	}
	if v.count > 0 {
		in.Front, in.Back = r.front(v), r.store.at(int(v.idx), int(v.count)-1)
	}
	return in
}

// Output is one output VC as the network's consistency walk reads it;
// the worm and its owner input (OwnerP, OwnerV) are meaningful only
// while Held.
type Output struct {
	Worm           flit.WormID
	Credit, Window int
	OwnerP, OwnerV int
	Held           bool
}

// Output returns output VC (p, vc)'s state.
func (r *Router) Output(p, vc int) Output {
	o := &r.vcsOf(p)[vc]
	return Output{Worm: o.worm, Credit: int(o.credit), Window: int(o.window),
		OwnerP: int(o.ownerP), OwnerV: int(o.ownerV), Held: o.held}
}

// BufferedFlits returns the total number of flits buffered in the
// router, for network-level conservation checks. The count is maintained
// incrementally (CheckInvariants verifies it against the per-VC sums).
func (r *Router) BufferedFlits() int { return r.buffered }

// BufferCapacity returns the total flit capacity across every input VC
// (network and injection buffers): the denominator that turns
// BufferedFlits into an occupancy fraction. It is the modelled budget,
// BufDepth per VC, which is the same for every buffer organization (the
// shared orgs' rings are one slot longer; see buforg.go).
func (r *Router) BufferCapacity() int { return len(r.ins) * r.cfg.BufDepth }

// ActiveWormCount returns how many input VCs currently host a worm.
func (r *Router) ActiveWormCount() int {
	n := 0
	for i := range r.ins {
		if r.ins[i].active {
			n++
		}
	}
	return n
}
