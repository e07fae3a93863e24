package router

import (
	"fmt"
	"math"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// RouteAndAllocate routes every input virtual channel whose head flit is
// waiting at the buffer front and tries to claim an output virtual
// channel for it. Corrupt headers (under VerifyHeaders) trigger a
// backward tear-down whose emissions are appended to emits.
func (r *Router) RouteAndAllocate(emits []Emit) []Emit {
	for i := range r.ins {
		v := &r.ins[i]
		if !v.active || v.routed() || v.count == 0 {
			continue
		}
		head := r.front(v)
		if r.cfg.Check && head.Kind != flit.Head {
			panic(fmt.Sprintf("router %d: unrouted VC (%d,%d) fronted by %v", r.id, v.p, v.vc, head))
		}
		if r.cfg.VerifyHeaders && !head.Verify() {
			emits = r.tearCorruptHeader(v, emits)
			continue
		}
		var ok bool
		if head.Dst == r.id {
			ok = r.allocateEjection(v)
		} else {
			ok = r.allocateNetwork(v, head)
		}
		if ok {
			v.blocked = 0
			continue
		}
		r.stats.BlockedHeaders++
		if v.blocked < math.MaxInt32 {
			v.blocked++
		}
		if r.cfg.RouterTimeout > 0 && int(v.blocked) >= r.cfg.RouterTimeout {
			emits = r.tearBlockedWorm(v, emits)
		}
	}
	return emits
}

// tearBlockedWorm implements the path-wide timeout: the router kills a
// worm whose header it has held blocked for RouterTimeout cycles,
// tearing it down backward so the source retransmits. Unlike the
// source-based scheme, the router cannot know whether the worm is
// committed or merely slow — the source of the paper's "unnecessary
// kills" observation.
func (r *Router) tearBlockedWorm(v *inVC, emits []Emit) []Emit {
	r.stats.RouterKills++
	worm := v.worm
	p, vc := int(v.p), int(v.vc)
	if purged := r.purge(v); purged > 0 && p < r.deg {
		emits = append(emits, Emit{Kind: EmitCredits, Port: p, VC: vc, Worm: worm, N: purged})
	}
	emits = append(emits, Emit{Kind: EmitKillBwd, Port: p, VC: vc, Worm: worm})
	releaseIn(v, worm)
	return emits
}

// tearCorruptHeader handles FCR's per-hop header protection: the worm is
// purged here and torn down backward to its source.
func (r *Router) tearCorruptHeader(v *inVC, emits []Emit) []Emit {
	r.stats.HeaderFaults++
	worm := v.worm
	p, vc := int(v.p), int(v.vc)
	if purged := r.purge(v); purged > 0 && p < r.deg {
		emits = append(emits, Emit{Kind: EmitCredits, Port: p, VC: vc, Worm: worm, N: purged})
	}
	emits = append(emits, Emit{Kind: EmitKillBwd, Port: p, VC: vc, Worm: worm})
	releaseIn(v, worm)
	return emits
}

// allocateEjection claims a free ejection channel for a worm that has
// reached its destination.
func (r *Router) allocateEjection(v *inVC) bool {
	for e := r.deg; e < len(r.outs); e++ {
		o := &r.outs[e].vcs[0]
		if o.held {
			continue
		}
		o.held = true
		o.worm = v.worm
		o.ownerP, o.ownerV = v.p, v.vc
		v.outP, v.outV = int16(e), 0
		r.stats.HeadersRouted++
		return true
	}
	return false
}

// allocateNetwork asks the routing algorithm for candidates and claims
// the first free one, rotating among equally preferred (non-escape)
// candidates for load spreading. Escape-channel allocations are counted
// as potential deadlock situations (PDS).
func (r *Router) allocateNetwork(v *inVC, head *flit.Flit) bool {
	inPort := topology.InvalidPort
	inVCIdx := -1
	if int(v.p) < r.deg {
		inPort = topology.Port(v.p)
		inVCIdx = int(v.vc)
	}
	allowMisroute := r.cfg.MisrouteAfter > 0 &&
		head.Worm.Attempt() >= r.cfg.MisrouteAfter &&
		int(head.Detours) < r.cfg.MaxDetours
	req := routing.Request{
		Topo:          r.topo,
		Cur:           r.id,
		Dst:           head.Dst,
		InPort:        inPort,
		InVC:          inVCIdx,
		NumVCs:        r.cfg.VCs,
		AllowMisroute: allowMisroute,
		LinkUp:        r.linkUp,
		PortBuf:       r.portBuf[:0],
	}
	// One Route call serves both passes (routing is a pure function of
	// the request). Pass 1 appends the free non-escape candidates after
	// the routed list, which candBuf's capacity already holds.
	cands := r.alg.Route(req, r.candBuf[:0])
	n := len(cands)
	for i := 0; i < n; i++ {
		if c := cands[i]; !c.Escape && r.candFree(c) {
			cands = append(cands, c)
		}
	}
	r.candBuf = cands[:0]
	// Pass 1: non-escape candidates, rotated for fairness.
	if len(cands) > n {
		return r.claim(v, head, r.selectCandidate(cands[n:]))
	}
	// Pass 2: escape candidates in preference order.
	for _, c := range cands[:n] {
		if c.Escape && r.candFree(c) {
			return r.claim(v, head, c)
		}
	}
	return false
}

// selectCandidate applies the configured selection policy to a non-empty
// list of free, equally preferred candidates.
func (r *Router) selectCandidate(free []routing.Candidate) routing.Candidate {
	switch r.cfg.Select {
	case SelectFirst:
		return free[0]
	case SelectLeastLoaded:
		best := free[0]
		bestCred := r.portCredit(best.Port)
		for _, c := range free[1:] {
			if cred := r.portCredit(c.Port); cred > bestCred {
				best, bestCred = c, cred
			}
		}
		return best
	default: // SelectRotating
		// Unsigned, so a rotation past MaxInt (or restored there) still
		// picks a candidate; below it the index is the signed one.
		r.allocRR++
		return free[uint(r.allocRR)%uint(len(free))]
	}
}

// portCredit returns the total downstream credit across a network
// output port's virtual channels — its "drained-ness".
func (r *Router) portCredit(p topology.Port) int {
	total := 0
	for vc := range r.outs[p].vcs {
		total += int(r.outs[p].vcs[vc].credit)
	}
	return total
}

// candFree reports whether a candidate output VC can be claimed: link
// alive, not held, and the downstream buffer fully drained (all credits
// home — credit has returned to the current window). The credit
// condition keeps consecutive worms on one VC from overlapping — the
// new head must not arrive while the previous worm's tail is still
// buffered downstream. Under static FIFO the window is constant
// BufDepth, making this the original fixed-depth test; the shared
// organizations compare against the dynamically advertised window.
func (r *Router) candFree(c routing.Candidate) bool {
	out := &r.outs[c.Port]
	ov := &out.vcs[c.VC]
	return out.linkUp && !ov.held && ov.credit == ov.window
}

func (r *Router) claim(v *inVC, head *flit.Flit, c routing.Candidate) bool {
	o := &r.outs[c.Port].vcs[c.VC]
	o.held = true
	o.worm = v.worm
	o.ownerP, o.ownerV = v.p, v.vc
	v.outP, v.outV = int16(c.Port), int16(c.VC)
	r.stats.HeadersRouted++
	if c.Escape {
		r.stats.PDS++
	}
	head.Hops++
	if int(head.Hops) > r.maxHops {
		r.maxHops = int(head.Hops)
		r.maxHopsWorm = head.Worm
	}
	next, _ := r.topo.Neighbor(r.id, c.Port)
	if r.topo.Distance(next, head.Dst) >= r.topo.Distance(r.id, head.Dst) {
		head.Detours++
		r.stats.Misroutes++
	}
	return true
}
