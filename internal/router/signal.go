package router

import (
	"fmt"

	"crnet/internal/flit"
)

// SignalKind distinguishes the two out-of-band tear-down signals.
type SignalKind uint8

const (
	// KillFwd tears a worm down from the source side: it arrives at the
	// input virtual channel the worm occupies and propagates along the
	// worm's allocation chain toward its header.
	KillFwd SignalKind = iota
	// KillBwd (the paper's FKILL) tears a worm down from the destination
	// side: it arrives at the output virtual channel the worm holds and
	// propagates toward the source, which then retransmits.
	KillBwd
)

// String implements fmt.Stringer.
func (k SignalKind) String() string {
	if k == KillFwd {
		return "KILL"
	}
	return "FKILL"
}

// Signal is one tear-down event addressed to this router. For KillFwd,
// Port/VC name an input virtual channel; for KillBwd an output one.
type Signal struct {
	Kind SignalKind
	Port int
	VC   int
	Worm flit.WormID
}

// EmitKind classifies router outputs the network must deliver.
type EmitKind uint8

const (
	// EmitKillFwd propagates a forward kill over output Port/VC. On a
	// network port the network schedules KillFwd at the downstream
	// router next cycle; on an ejection port it tells the local receiver
	// to discard the partial worm.
	EmitKillFwd EmitKind = iota
	// EmitKillBwd propagates a backward kill over input Port/VC. On a
	// network port the network schedules KillBwd at the upstream router
	// next cycle; on an injection port it tells the local injector the
	// worm was FKILLed (retransmit).
	EmitKillBwd
	// EmitCredits refunds N buffer credits to the upstream output feeding
	// input Port/VC; emitted when a purge discards buffered flits.
	EmitCredits
	// EmitHeadLost reports that a purge of input Port/VC discarded Head,
	// its worm's head, which so never reaches its receiver.
	EmitHeadLost
)

// Emit is one side effect of a tear-down for the network to deliver.
type Emit struct {
	Kind EmitKind
	Port int
	VC   int
	Worm flit.WormID
	N    int       // credits, for EmitCredits
	Head flit.Flit // for EmitHeadLost
}

// purge discards every buffered flit of v, refunds them to the upstream
// output when a link feeds v, and reports a head among them.
//
// The shared organizations deliberately do NOT shrink the VC's granted
// window here: a kill can race a same-cycle claim of the freed upstream
// output VC (the upstream sees held clear in the signals phase and
// reclaims with the dead worm's credit==window in the same cycle's
// allocate phase, before any shrink event could arrive). Shrinking on
// purge would then leave the new worm streaming against a window larger
// than the downstream grant. Instead the grant tenure freezes across a
// kill — upstream window and downstream granted stay mirrored at the
// dead worm's level — and shrinks only on the next worm's normal
// release, which is synchronous with its final tail refund and
// therefore race-free. The cost is shared budget stranded on a killed
// channel until it hosts its next worm; the benefit is that
// credit ∈ [0, window] holds unconditionally.
func (r *Router) purge(v *inVC, emits []Emit) []Emit {
	n := int(v.count)
	if n == 0 {
		return emits
	}
	if int(v.p) < r.deg {
		emits = append(emits, Emit{Kind: EmitCredits, Port: int(v.p), VC: int(v.vc), Worm: v.worm, N: n})
	}
	if f := r.front(v); f.Kind == flit.Head {
		emits = append(emits, Emit{Kind: EmitHeadLost, Port: int(v.p), VC: int(v.vc), Worm: v.worm, Head: *f})
	}
	r.store.purge(int(v.idx), n)
	v.count = 0
	r.buffered -= n
	r.stats.PurgedFlits += int64(n)
	return emits
}

// releaseIn resets an input VC after tear-down, arming the straggler
// absorber for the dead worm.
func (r *Router) releaseIn(v *inVC, worm flit.WormID) {
	clearBit(r.waiting, int(v.idx))
	v.active = false
	v.outP, v.outV = -1, -1
	v.purgeWorm = worm
	v.purgeValid = true
	v.blocked = 0
}

// ApplySignal processes one tear-down signal and returns the emissions
// the network must deliver (further propagation and credit refunds).
func (r *Router) ApplySignal(s Signal, emits []Emit) []Emit {
	switch s.Kind {
	case KillFwd:
		return r.applyKillFwd(s, emits)
	case KillBwd:
		return r.applyKillBwd(s, emits)
	default:
		panic(fmt.Sprintf("router: unknown signal kind %d", s.Kind))
	}
}

func (r *Router) applyKillFwd(s Signal, emits []Emit) []Emit {
	v := r.in(s.Port, s.VC)
	if !v.active || v.worm != s.Worm {
		// The worm is already gone (e.g. torn down by a dead-link sweep
		// racing the kill). Arm the absorber and drop the signal.
		r.stats.StaleSignals++
		v.purgeWorm = s.Worm
		v.purgeValid = true
		return emits
	}
	r.stats.KillsFwd++
	emits = r.purge(v, emits)
	if v.routed() {
		o := &r.vcsOf(int(v.outP))[v.outV]
		if r.check && (!o.held || o.worm != s.Worm) {
			panic(fmt.Sprintf("router %d: forward kill found inconsistent allocation", r.id))
		}
		r.unhold(o, int(v.outP))
		emits = append(emits, Emit{Kind: EmitKillFwd, Port: int(v.outP), VC: int(v.outV), Worm: s.Worm})
	}
	r.releaseIn(v, s.Worm)
	return emits
}

func (r *Router) applyKillBwd(s Signal, emits []Emit) []Emit {
	o := &r.vcsOf(s.Port)[s.VC]
	if !o.held || o.worm != s.Worm {
		// The worm's tail already passed here (possible only if the
		// protocol's padding bound was violated) or the worm was torn
		// down by another mechanism. Count it; FCR tests assert zero.
		r.stats.StaleSignals++
		return emits
	}
	r.stats.KillsBwd++
	p, vc := int(o.ownerP), int(o.ownerV)
	v := r.in(p, vc)
	if r.check && (!v.active || v.worm != s.Worm) {
		panic(fmt.Sprintf("router %d: backward kill found inconsistent ownership", r.id))
	}
	emits = r.purge(v, emits)
	r.unhold(o, s.Port)
	emits = append(emits, Emit{Kind: EmitKillBwd, Port: p, VC: vc, Worm: s.Worm})
	r.releaseIn(v, s.Worm)
	return emits
}

// WormAt describes a worm occupying a channel, for dead-link sweeps.
type WormAt struct {
	VC   int
	Worm flit.WormID
}

// HeldWorms returns the worms holding output virtual channels of network
// port p. When the link on p dies, the network tears each down backward
// (KillBwd at this router) so their sources retransmit on another path.
func (r *Router) HeldWorms(p int, buf []WormAt) []WormAt {
	for vc, o := range r.vcsOf(p) {
		if o.held {
			buf = append(buf, WormAt{VC: vc, Worm: o.worm})
		}
	}
	return buf
}

// ActiveWorms returns the worms occupying input virtual channels of
// network port p. When the upstream link dies, the network tears each
// down forward (KillFwd at this router) to reclaim the orphaned
// downstream fragment.
func (r *Router) ActiveWorms(p int, buf []WormAt) []WormAt {
	for vc := 0; vc < r.numVCs(p); vc++ {
		v := r.in(p, vc)
		if v.active {
			buf = append(buf, WormAt{VC: vc, Worm: v.worm})
		}
	}
	return buf
}

// BlockedWorm describes a worm whose header has been stuck at output
// allocation, for the deadlock watchdog.
type BlockedWorm struct {
	Port, VC int
	Worm     flit.WormID
	// Blocked is how many consecutive cycles the header has failed
	// allocation.
	Blocked int
}

// BlockedWorms appends every worm (on any input, including injection
// channels) whose header has been blocked at allocation for at least
// min consecutive cycles. Worms that are routed, or whose header has
// not yet reached the buffer front, are progressing by definition and
// are not reported.
func (r *Router) BlockedWorms(min int, buf []BlockedWorm) []BlockedWorm {
	for i := range r.ins {
		v := &r.ins[i]
		if v.active && !v.routed() && int(v.blocked) >= min {
			buf = append(buf, BlockedWorm{Port: int(v.p), VC: int(v.vc), Worm: v.worm, Blocked: int(v.blocked)})
		}
	}
	return buf
}

// CreditAdvert publishes a downstream window delta for this router's
// input (port, vc) back to the upstream router feeding it. The network
// installs one per router (shared organizations only); deltas ride the
// same deterministic credit queues as plain refunds, so they commute
// with them inside a cycle and need no global ordering in the sharded
// kernel.
type CreditAdvert func(port, vc, delta int)

// SetAdvertiser installs the window-advertisement sink. A nil
// advertiser (the default) drops deltas, which is sound: the upstream
// window then stays at the reserve and the downstream ledger simply
// over-grants locally.
func (r *Router) SetAdvertiser(a CreditAdvert) { r.advert = a }

// ApplyCredit applies one credit event to output (p, vc): n plain
// refunds plus a window delta w (grants are positive, release shrinks
// negative). Plain credit application is ApplyCredit(p, vc, n, 0). The
// overflow check is exact only for static FIFO, where the window is the
// constant BufDepth; the shared organizations can interleave plain
// refunds with window shrinks inside one credit phase, so their
// end-of-cycle bound (credit <= window) is asserted by CheckInvariants
// instead.
func (r *Router) ApplyCredit(p, vc, n, w int) {
	o := &r.vcsOf(p)[vc]
	o.credit += int32(n + w)
	o.window += int32(w)
	if r.check && r.cfg.Org == OrgStaticFIFO && !r.outs[p].ejection && int(o.credit) > r.cfg.BufDepth {
		panic(fmt.Sprintf("router %d: credit overflow on output (%d,%d)", r.id, p, vc))
	}
}
