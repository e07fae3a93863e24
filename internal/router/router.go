// Package router implements the wormhole router at every network node:
// per-virtual-channel input buffering with credit-based flow control,
// header routing and virtual-channel allocation, round-robin switch
// arbitration, and the out-of-band tear-down signalling (forward KILL,
// backward FKILL) that Compressionless Routing uses to recover from
// potential deadlocks and faults.
//
// The router is driven by the network package in four phases per cycle:
//
//  1. AcceptFlit — link arrivals from the previous cycle land in input
//     buffers (the network applies fault injection first).
//  2. ApplySignal — out-of-band KILL/FKILL signals scheduled for this
//     cycle tear down worm state and emit further propagations.
//  3. RouteAndAllocate — head flits at buffer fronts claim output
//     virtual channels (or an ejection channel at their destination).
//  4. Transmit — each output physical channel forwards at most one flit,
//     consuming a downstream credit; dequeues emit credits upstream.
//
// Layout: all virtual-channel state lives in flat, index-addressed
// slices — one contiguous []inVC for every input VC (network ports
// first, injection channels after), one contiguous []outVC behind the
// per-port output views, and one store (see buforg.go) holding every
// input VC's FIFO as a private ring, under a window ledger whose
// geometry is the configured buffer organization (no sharing, per-port
// DAMQ pools, or one router-wide credit-shared pool). Construction
// performs the only allocations; the steady state allocates nothing in
// any organization.
//
// Activity: Busy reports whether any flit is buffered here. A router
// with no buffered flits has nothing to do in RouteAndAllocate or
// Transmit, which is what lets the network's cycle engine skip
// quiescent routers entirely. Inside a busy router, RouteAndAllocate
// visits only inputs with a waiting head and Transmit only output ports
// with a held VC, and a blocked head reuses the route computed on its
// first visit (alloc.go).
//
// Determinism: all iteration is in fixed port/VC order and arbitration
// state advances deterministically, so identical inputs give identical
// simulations.
package router

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Selection chooses among the free candidate outputs an adaptive
// routing function offers — the router's congestion-response policy.
type Selection uint8

const (
	// SelectRotating cycles a pointer over the free candidates: cheap,
	// deterministic load spreading (the default).
	SelectRotating Selection = iota
	// SelectFirst always takes the first free candidate in the routing
	// function's preference order (lowest dimension first): no load
	// spreading, the weakest policy.
	SelectFirst
	// SelectLeastLoaded takes the free candidate on the output port with
	// the most total downstream credit across its virtual channels — a
	// congestion-aware policy that steers worms toward drained
	// directions.
	SelectLeastLoaded
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case SelectRotating:
		return "rotating"
	case SelectFirst:
		return "first"
	case SelectLeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("Selection(%d)", uint8(s))
	}
}

// Config carries the per-router structural parameters.
type Config struct {
	// VCs is the number of virtual channels per network input port.
	VCs int
	// BufDepth is the flit capacity of each virtual-channel buffer. CR
	// uses shallow buffers (the paper fixes 2); DOR baselines sweep it.
	BufDepth int
	// InjectionChannels is the number of injection ports from the local
	// node interface (each with a single VC of BufDepth flits).
	InjectionChannels int
	// EjectionChannels is the number of ejection ports to the local node
	// interface, each delivering one flit per cycle.
	EjectionChannels int
	// VerifyHeaders makes the router checksum-verify head flits before
	// routing them, tearing the worm down backward on corruption (FCR's
	// per-hop header protection).
	VerifyHeaders bool
	// RouterTimeout, when positive, enables the paper's "path-wide"
	// alternative timeout scheme (Section 7): a router whose input VC
	// holds a header blocked for RouterTimeout cycles tears the worm
	// down itself (backward to the source, which retransmits). The
	// paper's chosen design is the source-based timeout; this knob
	// exists for the ablation showing path-wide schemes kill more and
	// perform worse.
	RouterTimeout int
	// MisrouteAfter, when positive, allows worms on attempt >=
	// MisrouteAfter to take non-minimal hops around dead links, up to
	// MaxDetours per worm.
	MisrouteAfter int
	// MaxDetours bounds non-minimal hops per worm when misrouting.
	MaxDetours int
	// Select chooses among free adaptive candidates (default rotating).
	Select Selection
	// Org selects the input-buffer organization (default static FIFO;
	// see buforg.go).
	Org BufferOrg
	// Check enables internal invariant verification after every phase;
	// used by tests.
	Check bool
}

// maxChannels and maxBufDepth bound the configuration so every port,
// VC index and window fits the narrow fields of inVC and outVC (a
// topology's degree is far below maxChannels).
const (
	maxChannels = 1 << 12
	maxBufDepth = 1 << 20
)

// Validate reports the first structural parameter a router cannot be
// built from. New panics on the same conditions; the network validates
// up front because it constructs routers lazily.
func (c Config) Validate() error {
	if c.VCs < 1 {
		return fmt.Errorf("router: VCs = %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("router: BufDepth = %d", c.BufDepth)
	}
	if c.InjectionChannels < 1 || c.EjectionChannels < 1 {
		return fmt.Errorf("router: need at least one injection and ejection channel, have %d/%d",
			c.InjectionChannels, c.EjectionChannels)
	}
	if c.MisrouteAfter > 0 && c.MaxDetours < 1 {
		return fmt.Errorf("router: misrouting enabled with MaxDetours = %d", c.MaxDetours)
	}
	if c.Org != OrgStaticFIFO && c.Org != OrgDAMQ && c.Org != OrgCreditShared {
		return fmt.Errorf("router: unknown buffer org %d", c.Org)
	}
	// Ports and VC indices are int16 and windows int32 in the VC state.
	if c.VCs > maxChannels || c.InjectionChannels > maxChannels || c.EjectionChannels > maxChannels {
		return fmt.Errorf("router: %d VCs, %d injection and %d ejection channels exceed %d",
			c.VCs, c.InjectionChannels, c.EjectionChannels, maxChannels)
	}
	if c.BufDepth > maxBufDepth {
		return fmt.Errorf("router: BufDepth = %d exceeds %d", c.BufDepth, maxBufDepth)
	}
	return nil
}

// inVC is the state of one input virtual channel: the occupancy of its
// FIFO (storage lives in the router's store, addressed by the flat
// index idx) plus the worm claim and output allocation. p/vc record the
// VC's own address so flat iteration needs no index arithmetic.
//
// The fields are as narrow as their ranges allow, so an input VC is 40
// bytes (TestVCStateSizes): on a network far larger than L2 the allocate
// and transmit walks miss on these lines more than on the flits. The
// codec writes every field as an int (state.go).
type inVC struct {
	worm flit.WormID
	// purgeWorm absorbs the single straggler flit that can be in flight
	// when a tear-down purges this VC (valid while purgeValid).
	purgeWorm flit.WormID

	idx   int32 // flat index into the router's store
	count int32 // FIFO occupancy

	// blocked counts consecutive cycles a header waited for an output
	// (saturating); used by the path-wide timeout ablation
	// (Config.RouterTimeout) and by the deadlock watchdog (BlockedWorms).
	blocked int32

	p  int16 // input port this VC belongs to
	vc int16 // VC index within the port

	// outP/outV is the allocated output VC, (-1,-1) while unrouted: an
	// input is routed exactly when outP >= 0 (see routed).
	outP int16
	outV int16

	// routeN is the length of the waiting head's cached route plus one,
	// 0 while none is cached (see alloc.go). It fills padding: the
	// struct is 40 bytes with or without it.
	routeN int16

	active     bool // a worm has claimed this VC (head arrived, tail not yet passed)
	purgeValid bool
}

// routed reports whether v holds an output allocation.
func (v *inVC) routed() bool { return v.outP >= 0 }

func (r *Router) front(v *inVC) *flit.Flit { return r.store.front(int(v.idx)) }

func (r *Router) push(v *inVC, f *flit.Flit) {
	if int(v.count) == r.store.capOf(int(v.idx)) {
		panic("router: input VC overflow (credit protocol violated)")
	}
	r.store.push(int(v.idx), int(v.count), f)
	v.count++
}

// pop removes v's front flit and returns the slot it vacated, valid
// until v's next push (see store.pop).
func (r *Router) pop(v *inVC) *flit.Flit {
	if v.count == 0 {
		panic("router: pop from empty VC")
	}
	f := r.store.pop(int(v.idx))
	v.count--
	return f
}

// outVC is the state of one output virtual channel: the holding worm (if
// any), the credit count for the downstream buffer, and the current
// window — the downstream occupancy the worm may reach. For static FIFO
// the window is constant BufDepth; the shared organizations start at the
// reserve and move it with advertised deltas (see buforg.go). Narrowed
// like inVC: 24 bytes. worm and the owner are read only while held: a
// release leaves them stale, and a restore (which derives them from the
// routed inputs) leaves an unheld output's zero.
type outVC struct {
	worm   flit.WormID
	credit int32
	window int32 // current downstream window (credit's ceiling)
	ownerP int16 // input port of the owning worm
	ownerV int16
	held   bool
}

// ejectCredit is an ejection channel's constant credit and window: it
// has no downstream buffer, so neither ever moves.
const ejectCredit = 1 << 30

// output is one output physical channel: where its VCs start in the
// router's outArena, its arbitration pointer and its link state. It
// holds no pointer, so reaching an output VC is one load of off, not a
// slice header's; vcsOf returns the VCs.
type output struct {
	off    int32 // index of the port's first VC in outArena
	rr     int32 // round-robin pointer over flattened input VC indices
	linkUp bool
	// ejection marks local delivery channels: single VC, no credits,
	// one flit per cycle.
	ejection bool
}

// Stats are the router's event counters, accumulated over a run.
type Stats struct {
	FlitsMoved     int64 // flits forwarded through the crossbar
	HeadersRouted  int64 // successful output allocations
	PDS            int64 // escape-channel allocations (potential deadlock situations)
	Misroutes      int64 // non-minimal hops taken
	KillsFwd       int64 // forward KILL signals processed
	RouterKills    int64 // path-wide timeout kills initiated by routers
	KillsBwd       int64 // backward FKILL signals processed
	StaleSignals   int64 // tear-downs that found no matching worm
	PurgedFlits    int64 // flits discarded by tear-downs
	Stragglers     int64 // in-flight flits absorbed after a purge
	HeaderFaults   int64 // corrupt headers detected (VerifyHeaders)
	BlockedHeaders int64 // cycles a head flit waited for an output
}

// Add accumulates other's counters into s.
func (s *Stats) Add(o Stats) {
	s.FlitsMoved += o.FlitsMoved
	s.HeadersRouted += o.HeadersRouted
	s.PDS += o.PDS
	s.Misroutes += o.Misroutes
	s.KillsFwd += o.KillsFwd
	s.RouterKills += o.RouterKills
	s.KillsBwd += o.KillsBwd
	s.StaleSignals += o.StaleSignals
	s.PurgedFlits += o.PurgedFlits
	s.Stragglers += o.Stragglers
	s.HeaderFaults += o.HeaderFaults
	s.BlockedHeaders += o.BlockedHeaders
}

// Router is one wormhole router. Construct with New; drive with the
// phase methods. Routers are not safe for concurrent use — the network's
// cycle loop is single-threaded by design (determinism).
//
// The fields TransmitRef, AcceptRef, ApplyCredit and RouteAndAllocate
// read on every visit come first, ending with the store's, so a visit
// reads the first four cache lines (TestRouterHotHeader).
type Router struct {
	// ins holds every input VC flat: network ports' VCs first
	// (port-major: port p's VCs occupy ins[p*VCs : (p+1)*VCs]), then one
	// single-VC entry per injection channel. The slice is never
	// reallocated, so *inVC pointers into it stay valid for the router's
	// lifetime.
	ins      []inVC
	outs     []output // per output port, addressing its VCs in outArena
	outArena []outVC  //cr:nosnap backing arena; its state is serialized through the outputs

	// waiting and holding are bitmasks, bit i of word i/16: the input
	// VCs whose head waits for an output (active and unrouted), and the
	// output ports with a held VC. RouteAndAllocate and TransmitRef walk
	// them, in ascending index, instead of every input and output.
	waiting []uint16 //cr:nosnap derived from the inputs' claims, rebuilt by LoadState
	holding []uint16 //cr:nosnap derived from the outputs' holders, rebuilt by LoadState

	// buffered is the total flit count across all input VCs, maintained
	// incrementally; Busy() == (buffered > 0) is the activity signal the
	// network's scheduler keys on.
	buffered   int   //cr:nosnap derived total, recomputed by LoadState from the restored input VCs
	deg        int   //cr:nosnap derived from the topology at construction
	flitsMoved int64 // Stats().FlitsMoved, counted here rather than in the cold stats
	vcs        int32 //cr:nosnap cfg.VCs
	check      bool  //cr:nosnap cfg.Check
	store      store // every input VC's ring, plus the window ledger

	// The cold fields, those a waiting head's visit reads first.
	id      topology.NodeID //cr:nosnap node identity, fixed at construction
	routes  []uint16        //cr:nosnap derived route cache: span slots per input VC (alloc.go), dropped by LoadState
	span    int             //cr:nosnap deg*VCs, the route cache's slots per input VC
	allocRR int             // rotation for adaptive candidate selection
	cfg     Config          //cr:nosnap construction parameters
	stats   Stats           // every counter but FlitsMoved

	topo topology.Topology //cr:nosnap immutable, supplied by the constructor
	alg  routing.Algorithm //cr:nosnap stateless strategy object, supplied by the constructor

	// maxHops is the largest per-worm hop count observed here (see
	// flit.Flit.Hops), the livelock watchdog's raw signal.
	maxHops     int
	maxHopsWorm flit.WormID

	// advert publishes window deltas upstream for the shared
	// organizations (nil until SetAdvertiser; static FIFO never calls
	// it).
	advert CreditAdvert //cr:nosnap callback, reattached by the owner after restore

	candBuf []routing.Candidate      //cr:nosnap per-call scratch, allocated by the first route
	portBuf []topology.Port          //cr:nosnap per-call scratch handed to routing via Request.PortBuf
	linkUp  func(topology.Port) bool //cr:nosnap callback, reattached by the owner after restore
}

// New constructs a router for node id of topo using the routing
// algorithm alg. It panics on invalid configuration (construction-time
// errors are programming errors).
func New(id topology.NodeID, topo topology.Topology, alg routing.Algorithm, cfg Config) *Router {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if min := alg.MinVCs(topo); cfg.VCs < min {
		panic(fmt.Sprintf("router: %s needs %d VCs on %s, config has %d", alg.Name(), min, topo.Name(), cfg.VCs))
	}
	deg := topo.Degree()
	r := &Router{id: id, topo: topo, alg: alg, cfg: cfg, deg: deg, vcs: int32(cfg.VCs), check: cfg.Check}
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	r.ins = make([]inVC, nIn)
	r.store = newStore(cfg, deg, nIn)
	for i := range r.ins {
		v := &r.ins[i]
		v.idx = int32(i)
		if i < deg*cfg.VCs {
			v.p, v.vc = int16(i/cfg.VCs), int16(i%cfg.VCs)
		} else {
			v.p, v.vc = int16(deg+(i-deg*cfg.VCs)), 0
		}
		v.outP, v.outV = -1, -1
	}
	r.outs = make([]output, deg+cfg.EjectionChannels)
	r.outArena = make([]outVC, deg*cfg.VCs+cfg.EjectionChannels)
	for p := range r.outs {
		o := &r.outs[p]
		o.linkUp = true
		if p >= deg {
			o.ejection = true
			o.off = int32(deg*cfg.VCs + (p - deg))
			r.outArena[o.off] = outVC{credit: ejectCredit, window: ejectCredit}
		} else {
			o.off = int32(p * cfg.VCs)
			w := int32(cfg.InitWindow())
			for v := range r.vcsOf(p) {
				r.outArena[int(o.off)+v] = outVC{credit: w, window: w}
			}
			if _, ok := topo.Neighbor(id, topology.Port(p)); !ok {
				o.linkUp = false // unconnected mesh edge
			}
		}
	}
	r.portBuf = make([]topology.Port, 0, deg)
	r.span = deg * cfg.VCs
	r.newDerived()
	r.linkUp = func(port topology.Port) bool { return r.outs[port].linkUp }
	return r
}

// in returns input VC (p, vc). Network ports hold cfg.VCs channels;
// injection ports (p >= deg) hold one.
func (r *Router) in(p, vc int) *inVC {
	if p < r.deg {
		return &r.ins[p*int(r.vcs)+vc]
	}
	return &r.ins[r.deg*int(r.vcs)+(p-r.deg)]
}

// numVCs returns how many virtual channels input port p carries.
func (r *Router) numVCs(p int) int {
	if p < r.deg {
		return int(r.vcs)
	}
	return 1
}

// vcsOf returns output port p's VCs: cfg.VCs of them on a network port,
// one on an ejection port, as numVCs counts input ports.
func (r *Router) vcsOf(p int) []outVC {
	off := int(r.outs[p].off)
	return r.outArena[off : off+r.numVCs(p)]
}

// ID returns the router's node id.
func (r *Router) ID() topology.NodeID { return r.id }

// Stats returns a copy of the router's counters.
func (r *Router) Stats() Stats {
	s := r.stats
	s.FlitsMoved = r.flitsMoved
	return s
}

// Degree returns the number of network ports.
func (r *Router) Degree() int { return r.deg }

// Busy reports whether any flit is buffered in the router. A non-busy
// router does nothing in RouteAndAllocate or Transmit (a waiting head
// and a flit to forward are both buffered flits), so the network's
// cycle engine may skip it until a flit arrives or is injected.
func (r *Router) Busy() bool { return r.buffered > 0 }

// InjPort returns the input port index of injection channel ch.
func (r *Router) InjPort(ch int) int { return r.deg + ch }

// EjPort returns the output port index of ejection channel ch.
func (r *Router) EjPort(ch int) int { return r.deg + ch }

// IsEjection reports whether output port p is an ejection channel.
func (r *Router) IsEjection(p int) bool { return p >= r.deg }

// LinkUp reports whether the outgoing link on network port p is alive.
func (r *Router) LinkUp(p int) bool { return r.outs[p].linkUp }

// SetLinkDown marks the outgoing link on network port p dead and drops
// the route cache, which holds candidates on live links only. Worm
// tear-down for the link's victims is driven by the network via
// HeldWorms/ActiveWorms and ApplySignal.
func (r *Router) SetLinkDown(p int) {
	r.outs[p].linkUp = false
	r.dropRoutes()
}

// SetLinkUp restores the outgoing link on network port p after a repair:
// the link comes back with no holders and a fully drained downstream
// buffer (the network resets the downstream input side in the same
// event, which returns every downstream window to the reserve), so
// every virtual channel is immediately claimable at its initial window.
// The route cache is dropped: a waiting head may now route over p.
func (r *Router) SetLinkUp(p int) {
	out := &r.outs[p]
	out.linkUp = true
	w := int32(r.cfg.InitWindow())
	vcs := r.vcsOf(p)
	for vc := range vcs {
		o := &vcs[vc]
		o.held = false
		o.credit = w
		o.window = w
	}
	clearBit(r.holding, p)
	r.dropRoutes()
}

// ResetInput clears the residue of a dead upstream link from network
// input port p after a repair: straggler-absorber markers and blocked
// counters are dropped, and any window grant stranded by a kill
// teardown is silently returned to the reserve — the repair path resets
// the upstream window to the reserve too (SetLinkUp), so the mirror is
// restored on both ends without an advertisement. Active worms must
// already have been torn down (the network sweeps ActiveWorms before
// calling this); buffered flits of live worms would be a protocol
// violation.
func (r *Router) ResetInput(p int) {
	for vc := 0; vc < r.numVCs(p); vc++ {
		v := r.in(p, vc)
		if v.active || v.count > 0 {
			panic(fmt.Sprintf("router %d: ResetInput(%d) with live worm %d (%d flits)", r.id, p, v.worm, v.count))
		}
		v.purgeValid = false
		v.purgeWorm = 0
		v.blocked = 0
		r.store.resetGrant(int(v.idx))
	}
}

// MaxHops returns the largest per-worm hop count any head flit showed
// while claiming a channel here, with the worm that set it — the
// livelock watchdog's raw signal.
func (r *Router) MaxHops() (int, flit.WormID) { return r.maxHops, r.maxHopsWorm }

// InjectionFree returns the free buffer slots of injection channel ch.
func (r *Router) InjectionFree(ch int) int {
	v := r.in(r.InjPort(ch), 0)
	return r.cfg.BufDepth - int(v.count)
}

// InjectionReady reports whether injection channel ch is idle and empty,
// so a new worm's head flit may be injected.
func (r *Router) InjectionReady(ch int) bool {
	v := r.in(r.InjPort(ch), 0)
	return !v.active && v.count == 0
}

// Inject places a flit into injection channel ch's buffer. The caller
// (the NIC injector) must have checked InjectionFree. A head flit claims
// the channel for its worm.
func (r *Router) Inject(ch int, f flit.Flit) {
	v := r.in(r.InjPort(ch), 0)
	if f.Kind == flit.Head {
		if v.active {
			panic(fmt.Sprintf("router %d: injected head into busy channel %d", r.id, ch))
		}
		v.active = true
		v.worm = f.Worm
		v.purgeValid = false
		v.blocked = 0
		r.await(v)
	} else if !v.active || v.worm != f.Worm {
		panic(fmt.Sprintf("router %d: injected body flit of worm %d into channel owned by %d", r.id, f.Worm, v.worm))
	}
	r.push(v, &f)
	r.buffered++
}

// AcceptFlit delivers a flit arriving over the incoming link of network
// input port p on virtual channel vc; it is AcceptRef for a caller
// holding the flit by value.
func (r *Router) AcceptFlit(p, vc int, f flit.Flit) bool { return r.AcceptRef(p, vc, &f) }

// AcceptRef delivers the flit *f arriving over the incoming link of
// network input port p on virtual channel vc, copying it into the VC's
// ring. It returns true if the flit was absorbed as a tear-down
// straggler (the network then refunds the upstream credit as if the
// flit had been consumed).
func (r *Router) AcceptRef(p, vc int, f *flit.Flit) bool {
	v := r.in(p, vc)
	if v.purgeValid && v.purgeWorm == f.Worm {
		r.stats.Stragglers++
		return true
	}
	if f.Kind == flit.Head {
		if v.active {
			panic(fmt.Sprintf("router %d: head of worm %d arrived on busy VC (%d,%d) owned by %d",
				r.id, f.Worm, p, vc, v.worm))
		}
		v.active = true
		v.worm = f.Worm
		v.purgeValid = false
		v.blocked = 0
		r.await(v)
		// Shared organizations grow the VC's window on head acceptance
		// and advertise the delta upstream (a no-op for static FIFO).
		if g := r.store.grantOnHead(int(v.idx)); g > 0 && r.advert != nil {
			r.advert(p, vc, g)
		}
	} else if r.check && (!v.active || v.worm != f.Worm) {
		panic(fmt.Sprintf("router %d: body flit %v arrived on VC (%d,%d) not owned by its worm", r.id, *f, p, vc))
	}
	r.push(v, f)
	r.buffered++
	return false
}
