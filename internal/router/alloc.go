package router

import (
	"fmt"
	"math"
	"math/bits"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Derived allocation state. Under saturation most heads a router visits
// were blocked last cycle and will be blocked this one, so the visit is
// made cheap:
//
//   - The waiting mask names the inputs with a head to route (active
//     and unrouted). A head's arrival or injection sets its bit; a claim
//     (claim, allocateEjection) or a tear-down (releaseIn) clears it.
//     The holding mask names the output ports with a held VC: a claim
//     sets the bit, and the release of the port's last held VC (a tail,
//     a tear-down, SetLinkUp) clears it. RouteAndAllocate and
//     TransmitRef walk the set bits in ascending index, the order of the
//     full scans they replace, so arbitration is unchanged.
//   - The route cache holds each waiting head's candidates, computed by
//     Route once, when the head is first visited. Route is a pure
//     function of the node, the head's destination, its arrival port and
//     VC, the VC count, its misroute permission (fixed while it waits)
//     and the link state. So the entry stays valid until a link changes:
//     SetLinkDown, SetLinkUp and LoadState drop every entry, and a
//     head's arrival or injection drops its input's. A blocked head then
//     costs one freedom test per cached candidate, and a header
//     checksum (VerifyHeaders) is verified once, when its route is
//     computed: corruption strikes on the link, before the head is
//     buffered, so a buffered head cannot change.
//
// A cached candidate is its output VC's index in outArena (port*VCs+vc),
// with routeEscape set for an escape candidate. Only candidates on live
// links are cached: a link's liveness cannot change under a valid entry,
// so freedom reduces to the VC's holder and credit. None of this is
// checkpointed; CheckInvariants holds the masks to the fields they index
// and every cached route to a fresh Route.

// routeEscape marks an escape candidate in a cached route.
const routeEscape = 1 << 15

// newDerived allocates the masks and the route cache as one block of
// 16-bit words: a mask word holds 16 bits, a cache slot one candidate.
func (r *Router) newDerived() {
	if r.span >= math.MaxInt16 {
		panic(fmt.Sprintf("router: %d ports of %d VCs exceed the route cache's %d output VCs",
			r.deg, r.cfg.VCs, math.MaxInt16-1))
	}
	nw, hw := words(len(r.ins)), words(len(r.outs))
	block := make([]uint16, nw+hw+len(r.ins)*r.span)
	r.waiting, r.holding, r.routes = block[:nw:nw], block[nw:nw+hw:nw+hw], block[nw+hw:]
}

// words returns the mask words n bits need.
func words(n int) int { return (n + 15) / 16 }

func setBit(m []uint16, i int)      { m[i>>4] |= 1 << (i & 15) }
func clearBit(m []uint16, i int)    { m[i>>4] &^= 1 << (i & 15) }
func hasBit(m []uint16, i int) bool { return m[i>>4]&(1<<(i&15)) != 0 }

// await marks v, whose head just arrived, waiting, with no route yet.
func (r *Router) await(v *inVC) {
	v.routeN = 0
	setBit(r.waiting, int(v.idx))
}

// dropRoutes drops every cached route.
func (r *Router) dropRoutes() {
	for i := range r.ins {
		r.ins[i].routeN = 0
	}
}

// route returns v's cached route.
func (r *Router) route(v *inVC) []uint16 {
	base := int(v.idx) * r.span
	return r.routes[base : base+int(v.routeN)-1]
}

// candidates returns Route's candidates for head waiting at v, in
// candBuf, or none at its destination.
func (r *Router) candidates(v *inVC, head *flit.Flit) []routing.Candidate {
	if topology.NodeID(head.Dst) == r.id {
		return nil
	}
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
		Dst:           topology.NodeID(head.Dst),
		InPort:        inPort,
		InVC:          inVCIdx,
		NumVCs:        r.cfg.VCs,
		AllowMisroute: allowMisroute,
		LinkUp:        r.linkUp,
		PortBuf:       r.portBuf[:0],
	}
	if r.candBuf == nil {
		// Scratch, allocated at the first route rather than in New, so
		// building a router (a restore builds one for every node its
		// checkpoint names) allocates only state. Route offers at most
		// one candidate per network output VC.
		r.candBuf = make([]routing.Candidate, 0, r.span)
	}
	cands := r.alg.Route(req, r.candBuf[:0])
	r.candBuf = cands[:0]
	return cands
}

// encode returns c's cached form.
func (r *Router) encode(c routing.Candidate) uint16 {
	e := uint16(int(c.Port)*r.cfg.VCs + c.VC)
	if c.Escape {
		e |= routeEscape
	}
	return e
}

// cacheRoute computes the route of head, waiting at v, into the cache.
func (r *Router) cacheRoute(v *inVC, head *flit.Flit) {
	base, n := int(v.idx)*r.span, 0
	for _, c := range r.candidates(v, head) {
		if r.outs[c.Port].linkUp {
			r.routes[base+n] = r.encode(c)
			n++
		}
	}
	v.routeN = int16(n + 1)
}

// routeFresh reports whether v's cached route is the one Route gives now.
func (r *Router) routeFresh(v *inVC) bool {
	cached, n := r.route(v), 0
	for _, c := range r.candidates(v, r.front(v)) {
		if !r.outs[c.Port].linkUp {
			continue
		}
		if n == len(cached) || cached[n] != r.encode(c) {
			return false
		}
		n++
	}
	return n == len(cached)
}

// RouteAndAllocate routes every input virtual channel whose head flit is
// waiting at the buffer front and tries to claim an output virtual
// channel for it. Corrupt headers (under VerifyHeaders) trigger a
// backward tear-down whose emissions are appended to emits.
func (r *Router) RouteAndAllocate(emits []Emit) []Emit {
	for w, m := range r.waiting {
		for ; m != 0; m &= m - 1 {
			v := &r.ins[w<<4|bits.TrailingZeros16(m)]
			head := r.front(v)
			if v.routeN == 0 {
				if r.check && head.Kind != flit.Head {
					panic(fmt.Sprintf("router %d: unrouted VC (%d,%d) fronted by %v", r.id, v.p, v.vc, head))
				}
				if r.cfg.VerifyHeaders && !head.Verify() {
					emits = r.tearCorruptHeader(v, emits)
					continue
				}
				r.cacheRoute(v, head)
			}
			var ok bool
			if topology.NodeID(head.Dst) == r.id {
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
	emits = r.purge(v, emits)
	emits = append(emits, Emit{Kind: EmitKillBwd, Port: p, VC: vc, Worm: worm})
	r.releaseIn(v, worm)
	return emits
}

// tearCorruptHeader handles FCR's per-hop header protection: the worm is
// purged here and torn down backward to its source.
func (r *Router) tearCorruptHeader(v *inVC, emits []Emit) []Emit {
	r.stats.HeaderFaults++
	worm := v.worm
	p, vc := int(v.p), int(v.vc)
	emits = r.purge(v, emits)
	emits = append(emits, Emit{Kind: EmitKillBwd, Port: p, VC: vc, Worm: worm})
	r.releaseIn(v, worm)
	return emits
}

// allocateEjection claims a free ejection channel for a worm that has
// reached its destination.
func (r *Router) allocateEjection(v *inVC) bool {
	for e := r.deg; e < len(r.outs); e++ {
		o := &r.vcsOf(e)[0]
		if o.held {
			continue
		}
		r.hold(v, o, e, 0)
		return true
	}
	return false
}

// allocateNetwork claims the first free candidate of v's cached route,
// rotating among equally preferred (non-escape) candidates for load
// spreading. Escape-channel allocations are counted as potential
// deadlock situations (PDS).
func (r *Router) allocateNetwork(v *inVC, head *flit.Flit) bool {
	route := r.route(v)
	// Pass 1: non-escape candidates, selected among the free ones.
	nFree := 0
	for _, e := range route {
		if e&routeEscape == 0 && r.free(e) {
			nFree++
		}
	}
	if nFree > 0 {
		return r.claim(v, head, r.selectCandidate(route, nFree))
	}
	// Pass 2: escape candidates in preference order.
	for _, e := range route {
		if e&routeEscape != 0 && r.free(e) {
			return r.claim(v, head, e)
		}
	}
	return false
}

// selectCandidate applies the configured selection policy to the free
// non-escape candidates of route, of which there are nFree > 0.
func (r *Router) selectCandidate(route []uint16, nFree int) uint16 {
	k := 0 // the k-th free candidate, counting from 0
	switch r.cfg.Select {
	case SelectFirst:
	case SelectLeastLoaded:
		best, bestCred := uint16(0), -1
		for _, e := range route {
			if e&routeEscape != 0 || !r.free(e) {
				continue
			}
			if cred := r.portCredit(int(e) / r.cfg.VCs); cred > bestCred {
				best, bestCred = e, cred
			}
		}
		return best
	default: // SelectRotating
		// Unsigned, so a rotation past MaxInt (or restored there) still
		// picks a candidate; below it the index is the signed one.
		r.allocRR++
		k = int(uint(r.allocRR) % uint(nFree))
	}
	for _, e := range route {
		if e&routeEscape == 0 && r.free(e) {
			if k == 0 {
				return e
			}
			k--
		}
	}
	panic("router: selected candidate not free")
}

// portCredit returns the total downstream credit across a network
// output port's virtual channels — its "drained-ness".
func (r *Router) portCredit(p int) int {
	total := 0
	for _, o := range r.vcsOf(p) {
		total += int(o.credit)
	}
	return total
}

// free reports whether cached candidate e's output VC can be claimed:
// not held, and the downstream buffer fully drained (all credits home —
// credit has returned to the current window). Its link is alive, or the
// candidate would not be cached. The credit condition keeps consecutive
// worms on one VC from overlapping — the new head must not arrive while
// the previous worm's tail is still buffered downstream. Under static
// FIFO the window is constant BufDepth, making this the original
// fixed-depth test; the shared organizations compare against the
// dynamically advertised window.
func (r *Router) free(e uint16) bool {
	ov := &r.outArena[e&^routeEscape]
	return !ov.held && ov.credit == ov.window
}

// hold makes v's worm the holder of output VC o, (p, vc).
func (r *Router) hold(v *inVC, o *outVC, p, vc int) {
	o.held = true
	o.worm = v.worm
	o.ownerP, o.ownerV = v.p, v.vc
	v.outP, v.outV = int16(p), int16(vc)
	clearBit(r.waiting, int(v.idx))
	setBit(r.holding, p)
	r.stats.HeadersRouted++
}

// holds reports whether output port p has a held VC.
func (r *Router) holds(p int) bool {
	for _, o := range r.vcsOf(p) {
		if o.held {
			return true
		}
	}
	return false
}

// unhold releases output VC o of port p, and with the port's last held
// VC its bit in the holding mask.
func (r *Router) unhold(o *outVC, p int) {
	o.held = false
	if !r.holds(p) {
		clearBit(r.holding, p)
	}
}

func (r *Router) claim(v *inVC, head *flit.Flit, e uint16) bool {
	j := int(e &^ routeEscape)
	port := j / r.cfg.VCs
	r.hold(v, &r.outArena[j], port, j%r.cfg.VCs)
	if e&routeEscape != 0 {
		r.stats.PDS++
	}
	head.Hops++
	if int(head.Hops) > r.maxHops {
		r.maxHops = int(head.Hops)
		r.maxHopsWorm = head.Worm
	}
	next, _ := r.topo.Neighbor(r.id, topology.Port(port))
	if dst := topology.NodeID(head.Dst); r.topo.Distance(next, dst) >= r.topo.Distance(r.id, dst) {
		head.Detours++
		r.stats.Misroutes++
	}
	return true
}
