package router

import "fmt"

// CheckInvariants verifies the router's internal consistency and returns
// a descriptive error on the first violation. Tests call it between
// cycles; production runs skip it.
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
//     worm, and points back at the output
//   - every routed input VC's allocated output VC is held by its worm
//   - inactive input VCs hold no flits and no allocation
//   - the cached buffered-flit counter matches the sum over input VCs
//   - the store's ledger audit passes (shared organizations): granted
//     windows within bounds and covering their occupancy, per-pool sums
//     within the budget, and flit conservation (per pool, Σ occupancy of
//     its VCs == the pool's occupancy counter)
func (r *Router) CheckInvariants() error {
	total := 0
	for i := range r.ins {
		v := &r.ins[i]
		total += int(v.count)
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
		if v.routed() {
			o := &r.outs[v.outP].vcs[v.outV]
			if !o.held || o.worm != v.worm || o.ownerP != v.p || o.ownerV != v.vc {
				return fmt.Errorf("router %d: input (%d,%d) allocation to (%d,%d) inconsistent",
					r.id, v.p, v.vc, v.outP, v.outV)
			}
		}
	}
	if total != r.buffered {
		return fmt.Errorf("router %d: buffered counter %d, actual %d", r.id, r.buffered, total)
	}
	wLo, wHi := int32(r.cfg.initWindow()), int32(r.cfg.maxWindow(r.deg))
	for p := range r.outs {
		out := &r.outs[p]
		for vc := range out.vcs {
			o := &out.vcs[vc]
			if !out.ejection && (o.window < wLo || o.window > wHi) {
				return fmt.Errorf("router %d: output (%d,%d) window %d outside [%d,%d]",
					r.id, p, vc, o.window, wLo, wHi)
			}
			if !out.ejection && (o.credit < 0 || o.credit > o.window) {
				return fmt.Errorf("router %d: output (%d,%d) credit %d with window %d",
					r.id, p, vc, o.credit, o.window)
			}
			if o.held {
				v := r.in(int(o.ownerP), int(o.ownerV))
				if !v.active || v.worm != o.worm || int(v.outP) != p || int(v.outV) != vc {
					return fmt.Errorf("router %d: output (%d,%d) owner (%d,%d) inconsistent",
						r.id, p, vc, o.ownerP, o.ownerV)
				}
			}
		}
	}
	if err := r.store.check(r.ins); err != nil {
		return fmt.Errorf("router %d: buffer store: %w", r.id, err)
	}
	return nil
}

// CreditOf returns the credit count of output (p, vc); used by
// network-level conservation checks.
func (r *Router) CreditOf(p, vc int) int { return int(r.outs[p].vcs[vc].credit) }

// BufferedAt returns the buffered flit count of input (p, vc); used by
// network-level conservation checks.
func (r *Router) BufferedAt(p, vc int) int { return int(r.in(p, vc).count) }

// InputActive reports whether input (p, vc) hosts a worm.
func (r *Router) InputActive(p, vc int) bool { return r.in(p, vc).active }

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
