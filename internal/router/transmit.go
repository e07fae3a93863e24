package router

import (
	"fmt"
	"math/bits"

	"crnet/internal/flit"
)

// Transmit is TransmitRef for a move callback that takes the flit by
// value.
func (r *Router) Transmit(moveFlit func(outPort, outVC int, f flit.Flit), creditFlit func(inPort, inVC int)) {
	r.TransmitRef(func(outPort, outVC int, f *flit.Flit) { moveFlit(outPort, outVC, *f) }, creditFlit)
}

// TransmitRef forwards at most one flit per output channel. For each flit
// moved, moveFlit is called with the output port/VC (the network places
// it on the link, or hands it to the local receiver for ejection ports)
// and creditFlit is called with the input port/VC it left (the network
// refunds the upstream credit; injection ports are skipped since the
// injector reads buffer occupancy directly). moveFlit receives the ring
// slot the flit vacated, valid only for the call: it must copy the flit
// out, not keep the pointer.
//
// Only output ports with a held VC can move a flit; the holding mask
// lists them, walked in ascending port order. Switch arbitration
// round-robins each output's pointer over the flat input-VC index
// space. Candidates are found through the output VCs' owner
// back-pointers rather than by scanning the inputs: every input with a
// flit for this output holds one of its VCs (a checked invariant), so
// the held VCs enumerate exactly the competitors, and the winner is the
// one whose input index comes first in round-robin order from rr — the
// same input a linear scan from rr would find.
func (r *Router) TransmitRef(moveFlit func(outPort, outVC int, f *flit.Flit), creditFlit func(inPort, inVC int)) {
	n := len(r.ins)
	for w, m := range r.holding {
		for ; m != 0; m &= m - 1 {
			op := w<<4 | bits.TrailingZeros16(m)
			out := &r.outs[op]
			if !out.ejection && !out.linkUp {
				continue // dead link transmits nothing
			}
			vcs := r.vcsOf(op)
			win, winKey := -1, n
			var winV *inVC
			for ovi := range vcs {
				ov := &vcs[ovi]
				if !ov.held {
					continue
				}
				if !out.ejection && ov.credit == 0 {
					continue
				}
				v := r.in(int(ov.ownerP), int(ov.ownerV))
				if v.count == 0 {
					continue
				}
				key := int(v.idx) - int(out.rr)
				if key < 0 {
					key += n
				}
				if key < winKey {
					win, winKey, winV = ovi, key, v
				}
			}
			if win < 0 {
				continue
			}
			// Winner: move one flit.
			v := winV
			ov := &vcs[win]
			// rr and winKey are both below n.
			if out.rr += int32(winKey + 1); int(out.rr) >= n {
				out.rr -= int32(n)
			}
			f := r.pop(v)
			r.buffered--
			if !out.ejection {
				ov.credit--
			}
			r.flitsMoved++
			if f.Tail {
				if r.check && ov.worm != f.Worm {
					panic(fmt.Sprintf("router %d: tail of worm %d leaving unheld output", r.id, f.Worm))
				}
				r.unhold(ov, op)
				v.active = false
				v.outP, v.outV = -1, -1
				// The worm has fully left this input VC: shrink its shared
				// window back to the reserve and re-grant the freed budget to
				// active siblings (no-op for static FIFO).
				r.store.release(int(v.idx), r.ins, r.advert)
			}
			if int(v.p) < r.deg {
				creditFlit(int(v.p), int(v.vc))
			}
			moveFlit(op, win, f)
		}
	}
}
