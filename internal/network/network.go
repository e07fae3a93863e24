// Package network assembles a complete simulated machine: one wormhole
// router per node, CR/FCR injector and receiver engines in each node
// interface, the links between routers, fault injection, and the global
// deterministic cycle loop.
//
// Per-cycle phase order (all iteration in ascending node/port order):
//
//  1. Out-of-band KILL/FKILL signals scheduled for this cycle (before
//     arrivals, so a chasing kill clears a channel before a successor
//     worm's head can land on it).
//  2. Link arrivals from the previous cycle (transient faults applied).
//  3. Fault-timeline events: link/node failures with their tear-down
//     sweeps, and repairs that bring links back up.
//  4. Injector ticks (protocol state machines push flits, detect
//     timeouts, issue kills).
//  5. Routing and output virtual-channel allocation.
//  6. Switch transmission: one flit per output channel; ejected flits
//     reach receivers, and the FKILL tear-downs they request are applied
//     at the end of their range's walk (local; propagation next cycle).
//  7. Credit application (credits earned this cycle become visible next).
//  8. Invariant checks (Config.Check), the Monitor hook (which can latch
//     the network unhealthy), the cycle increment, and the Observer hook.
//
// That order is stated once, as the body of Step in engine.go; external
// machinery (the fault timeline, the invariant watchdog, the metrics
// sampler) attaches through the Hooks seam there. There is one kernel:
// the nodes are partitioned into contiguous ranges (one range unless
// Config.Shards > 1), phases 2 and 4–7 run one body per range (shard.go)
// — inline on the caller's goroutine for one range, forked for several —
// and phases 1 and 3 run on the caller. The phases are activity-driven:
// each walks an incrementally maintained worklist of busy links and
// active routers/injectors/receivers (see step.go), so idle cycles cost
// O(active) rather than O(network) while producing byte-identical
// results to a full scan — and to every other range count; see shard.go
// for the partitioning and merge discipline.
package network

import (
	"fmt"
	"sync/atomic"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Config describes a complete network. Topo and Alg are required.
type Config struct {
	Topo topology.Topology
	Alg  routing.Algorithm

	// Protocol selects the node-interface protocol (Plain wormhole for
	// the DOR baselines, CR, or FCR).
	Protocol core.Protocol
	// VCs is the virtual channel count per network port; 0 means the
	// algorithm's minimum. At most 255 (an in-flight entry stores the
	// VC index in a byte).
	VCs int
	// BufDepth is the per-VC buffer depth; 0 means 2 (the paper's CR
	// setting).
	BufDepth int
	// BufOrg selects the router input-buffer organization: fixed
	// per-VC windows (the default), per-port DAMQ pools, or one
	// router-wide credit-shared pool (see router.BufferOrg). The flit
	// budget is identical across organizations; they differ in how
	// much of it one VC's window may be granted. Under the shared
	// organizations every VC always keeps a window of 1 and may be
	// granted up to BufDepth more.
	BufOrg router.BufferOrg
	// InjectionChannels and EjectionChannels size the node interface;
	// 0 means 1.
	InjectionChannels int
	EjectionChannels  int

	// Timeout, Backoff, MaxAttempts parameterize CR/FCR (see core).
	Timeout int
	// RouterTimeout enables the path-wide timeout ablation (see
	// router.Config.RouterTimeout); requires a CR or FCR protocol so the
	// sources retransmit router-killed worms.
	RouterTimeout int
	Backoff       core.Backoff
	MaxAttempts   int
	// MisrouteAfter/MaxDetours enable routing around permanent faults.
	MisrouteAfter int
	MaxDetours    int
	// Select chooses the router's adaptive output-selection policy.
	Select router.Selection
	// PadAdjust tweaks CR/FCR padding for the padding-margin ablation.
	PadAdjust int

	// TransientRate is the per-flit, per-link corruption probability
	// (i.i.d. Bernoulli), in [0,1]. Ignored when Burst is set.
	TransientRate float64
	// Burst, when non-nil, selects Gilbert-Elliott bursty corruption
	// instead of the Bernoulli process: each link runs its own chain,
	// whose state bit the link holds. The spec is immutable and safe to
	// share across networks.
	Burst *faults.BurstSpec
	// Seed keys the network's random draws: transient corruption and
	// the injectors' retransmission jitter.
	Seed uint64
	// Faults schedules the permanent-fault timeline: link and node
	// failures and repairs.
	Faults *faults.Schedule
	// Hazard, when non-nil, adds a load-coupled failure-intensity
	// process on top of the scheduled timeline: each link and router
	// fails at rate lambda0*exp(alpha*load) with load sampled from the
	// live utilization signals (see faults.HazardSpec). The spec is
	// immutable and safe to share; each network builds its own stateful
	// process from it.
	Hazard *faults.HazardSpec

	// Shards partitions the node set into that many contiguous id ranges
	// (clamped to the node count) and steps each range's phase bodies on
	// its own goroutine. 0 or 1 runs the single range inline on the
	// caller's goroutine. Results are byte-identical for every count —
	// see shard.go for the ordering discipline — so Shards, like the
	// harness worker count, only changes wall-clock.
	Shards int

	// Check enables router invariant verification every cycle (slow;
	// tests only).
	Check bool
}

func (c *Config) fillDefaults() error {
	if c.Topo == nil || c.Alg == nil {
		return fmt.Errorf("network: Topo and Alg are required")
	}
	if c.VCs == 0 {
		c.VCs = c.Alg.MinVCs(c.Topo)
	}
	if c.VCs > 255 {
		return fmt.Errorf("network: VCs = %d exceeds 255", c.VCs)
	}
	if nodes := c.Topo.Nodes(); nodes > flit.MaxNodes {
		return fmt.Errorf("network: %s has %d nodes; a head flit addresses at most %d", c.Topo.Name(), nodes, flit.MaxNodes)
	}
	if c.BufDepth == 0 {
		c.BufDepth = 2
	}
	if c.InjectionChannels == 0 {
		c.InjectionChannels = 1
	}
	if c.EjectionChannels == 0 {
		c.EjectionChannels = 1
	}
	if c.RouterTimeout > 0 && c.Protocol == core.Plain {
		return fmt.Errorf("network: RouterTimeout needs CR or FCR (sources must retransmit)")
	}
	if !(c.TransientRate >= 0 && c.TransientRate <= 1) {
		return fmt.Errorf("network: transient rate %v outside [0,1]", c.TransientRate)
	}
	if c.Burst != nil {
		if err := c.Burst.Validate(); err != nil {
			return err
		}
	}
	// Routers, injectors and receivers are built lazily on a node's
	// first touch; check what they would reject now, so an invalid
	// configuration fails at construction and not from inside Step.
	if err := c.routerConfig().Validate(); err != nil {
		return err
	}
	if min := c.Alg.MinVCs(c.Topo); c.VCs < min {
		return fmt.Errorf("network: %s needs %d VCs on %s, config has %d", c.Alg.Name(), min, c.Topo.Name(), c.VCs)
	}
	return c.coreConfig().Validate()
}

// Validate reports whether New would accept the configuration, with
// defaults applied to a copy.
func (c Config) Validate() error { return c.fillDefaults() }

func (c Config) routerConfig() router.Config {
	return router.Config{
		VCs:               c.VCs,
		BufDepth:          c.BufDepth,
		InjectionChannels: c.InjectionChannels,
		EjectionChannels:  c.EjectionChannels,
		VerifyHeaders:     c.Protocol == core.FCR,
		RouterTimeout:     c.RouterTimeout,
		MisrouteAfter:     c.MisrouteAfter,
		MaxDetours:        c.MaxDetours,
		Select:            c.Select,
		Org:               c.BufOrg,
		Check:             c.Check,
	}
}

func (c Config) coreConfig() core.Config {
	return core.Config{
		Protocol: c.Protocol,
		// CR/FCR padding must cover the worst per-hop, per-VC flit
		// absorption of the buffer organization, not the nominal per-VC
		// depth: a shared pool can grant one worm a window up to its cap
		// at every hop, and the protocol's commit guarantee (tail held at
		// the source until the head reaches the destination) only holds
		// when Imin is computed from that absorption. For static FIFO
		// AbsorbDepth == BufDepth, so the padding is unchanged; sharing
		// buys throughput at the price of longer minimum worms.
		BufDepth:      c.routerConfig().AbsorbDepth(c.Topo.Degree()),
		VCs:           c.VCs,
		Timeout:       c.Timeout,
		Backoff:       c.Backoff,
		MaxAttempts:   c.MaxAttempts,
		MisrouteAfter: c.MisrouteAfter,
		MaxDetours:    c.MaxDetours,
		PadAdjust:     c.PadAdjust,
	}
}

// link is one unidirectional channel between routers: a wire, not a
// flit slot. The flit crossing it (if busy) rides the owning range's
// busy-link worklist entry (inFlight), so a link is 24 bytes — node id
// as int32, port and cause count as int16, three flags in the padding —
// which is what a million-node torus's four million of them cost; see
// DESIGN.md §10 (memory diet).
type link struct {
	flits int64 // traversal count, for utilization reporting

	toNode int32
	toPort int16 // input port index at toNode

	// downRefs reference-counts failure causes: a link can be taken
	// down both by its own LinkEvent and by an incident NodeEvent, and
	// only comes back up when every cause has been repaired.
	downRefs int16

	exists bool
	busy   bool // a flit launched this cycle is crossing (see inFlight)
	bad    bool // the link's Gilbert-Elliott chain is in its bad state (Config.Burst)
}

// up reports whether the link exists and no failure cause is
// outstanding.
func (l *link) up() bool { return l.exists && l.downRefs == 0 }

// scheduledSignal is a tear-down signal due at a router next cycle.
type scheduledSignal struct {
	node topology.NodeID
	sig  router.Signal
}

// creditEvent is a deferred credit refund, compacted like link: a
// saturated big network queues one of these per flit moved per cycle.
// n counts plain refunds; w carries a window delta advertised by the
// shared buffer organizations (grants positive, release shrinks
// negative; always 0 for static FIFO). Both are additive and commute
// within a cycle, so the credit matrix applies them with no global
// ordering.
type creditEvent struct {
	node int32
	port int16
	vc   uint8
	n    int32
	w    int32
}

// stampOp carries an injector's stamp record (add) or its withdrawal
// from the source's range to the destination's receiver (see
// injPort.Stamp).
type stampOp struct {
	dst, src int32
	worm     flit.WormID
	add      bool
	s        flit.Stamps
}

// fkillReq is a receiver-initiated backward tear-down.
type fkillReq struct {
	node topology.NodeID
	ch   int
	worm flit.WormID
}

// Network is a complete simulated machine. Construct with New, drive
// with Step, feed with SubmitMessage, observe with DrainDeliveries and
// the stats accessors. Not safe for concurrent use (with Shards > 1
// the network forks and joins its own workers inside Step; the external
// contract is unchanged).
type Network struct {
	cfg Config
	//cr:nosnap immutable, rebuilt from Config by the constructor; the snapshot carries the config fingerprint instead
	//cr:sharded immutable after construction, so concurrent reads are race-free
	topo  topology.Topology
	nodes int
	deg   int

	// routers/injectors/receivers are constructed lazily on first
	// touch (routerAt and friends): a node that never sees a flit never
	// pays for its ~kilobytes of arena state, which is what lets a
	// million-node network construct instantly and grow memory with
	// traffic instead of with topology size. Construction is
	// deterministic and state-free, so the touch order cannot affect
	// results. rcfg/ccfg are the precomputed construction parameters.
	routers   []*router.Router
	injectors []*core.Injector
	receivers []*core.Receiver
	rcfg      router.Config //cr:nosnap construction parameters precomputed from Config
	ccfg      core.Config   //cr:nosnap construction parameters precomputed from Config

	// links is the flat [node*degree+port] link array (uniform degree),
	// replacing a per-node slice-of-slices: one allocation, no header
	// per node, cache-linear iteration.
	links     []link
	linkCount int //cr:nosnap derived from the topology by New

	cycle   int64
	sigNow  []scheduledSignal //cr:nosnap mid-cycle scratch; snapshots are taken at cycle boundaries where it is empty
	wormBuf []router.WormAt   //cr:nosnap per-call scratch for worm sweeps
	stamped []int32           //cr:nosnap per-save scratch: the receivers saveNodes found holding stamp records
	saveLen int               //cr:nosnap size of the last SaveState, which the next one reserves up front

	// sink holds the coordinator's cross-node side-effect queues:
	// scheduled signals, completed deliveries, and the flit counters fed
	// from hot paths (the credits its own phases defer go to row 0 of
	// the credit matrix). Embedding promotes the fields (n.signals,
	// n.flitsInjected, ...). Each node range owns its own sink and the
	// barriers merge them into this one in range order (see shard.go).
	sink

	// drained holds the slice handed out by the previous
	// DrainDeliveries and is reused as the next accumulation buffer
	// (double buffering, no allocation).
	drained []core.Delivery //cr:nosnap spare drain buffer; pending deliveries ride the sink, the spare is re-grown on demand

	// shards are the node ranges — always at least one — each owning its
	// nodes' activity worklists (see step.go for the maintenance
	// protocol); nodeShard is the node→range index, and pending and
	// joined are a fork's join (see forkJoin).
	shards    []shard
	nodeShard []int32 //cr:nosnap derived node-to-range index, rebuilt from Config by initShards
	//cr:nosnap a fork's join count; nothing of it outlives the fork
	//cr:sharded the join count is the fork's synchronization protocol itself
	pending atomic.Int32
	//cr:nosnap a fork's join wake-up, empty between forks
	//cr:sharded the join wake-up is the fork's synchronization protocol itself
	joined chan struct{}

	// Load-coupled failure process (nil unless cfg.Hazard is set).
	// hazardLinks fixes the entity order; hazardFlits/hazardLoad are
	// scratch vectors refilled from the live counters on evaluation
	// cycles only, so off-grid cycles pay one Due check.
	hazard      *faults.Hazard
	hazardLinks []faults.LinkID //cr:nosnap fixed entity order, rebuilt from the topology on restore
	hazardFlits []int64         //cr:nosnap scratch refilled from live counters on evaluation cycles
	hazardLoad  []float64       //cr:nosnap scratch refilled from live counters on evaluation cycles

	tracer Tracer //cr:nosnap observer callback; the harness reattaches it after restore
	hooks  Hooks
	health error

	lastProgress int64
	lastFault    int64 // cycle of the most recent fault-timeline event
	failEvents   int64 // fault *failure* events applied (timeline + hazard)
	flitsDropped int64 // in-flight flits lost to link death
	transients   int64 // flits corrupted crossing a link
}

// New builds the network. It panics on invalid configuration.
func New(cfg Config) *Network {
	if err := cfg.fillDefaults(); err != nil {
		panic(err)
	}
	topo := cfg.Topo
	nodes := topo.Nodes()
	deg := topo.Degree()
	n := &Network{
		cfg:       cfg,
		topo:      topo,
		nodes:     nodes,
		deg:       deg,
		routers:   make([]*router.Router, nodes),
		injectors: make([]*core.Injector, nodes),
		receivers: make([]*core.Receiver, nodes),
		links:     make([]link, nodes*deg),
		rcfg:      cfg.routerConfig(),
		ccfg:      cfg.coreConfig(),
		lastFault: -1,
	}
	for id := 0; id < nodes; id++ {
		node := topology.NodeID(id)
		for p := 0; p < deg; p++ {
			next, ok := topo.Neighbor(node, topology.Port(p))
			if !ok {
				continue
			}
			n.links[id*deg+p] = link{
				exists: true,
				toNode: int32(next),
				toPort: int16(topo.ReversePort(node, topology.Port(p))),
			}
			n.linkCount++
		}
	}
	if cfg.Hazard != nil {
		n.hazardLinks = n.Links()
		ids := make([]int, nodes)
		for id := range ids {
			ids[id] = id
		}
		n.hazard = faults.NewHazard(*cfg.Hazard, n.hazardLinks, ids)
		n.hazardFlits = make([]int64, len(n.hazardLinks))
		n.hazardLoad = make([]float64, nodes)
	}
	n.initShards(cfg.Shards)
	return n
}

// linkAt returns the link at (node, port) in the flat array.
func (n *Network) linkAt(id, p int) *link { return &n.links[id*n.deg+p] }

// routerBlock is the size of the id blocks routerAt builds routers in:
// consecutive ids, aligned to a multiple of routerBlock and clipped to
// the owning range. A block builds at most routerBlock-1 routers that
// are never touched; a larger block would cost more memory on sparse
// fabrics.
const routerBlock = 8

// routerAt returns node id's router, constructing it on first touch.
// Stats accessors that only *read* router state skip nil entries
// instead (an untouched router contributes its zero/initial values).
//
// The router comes from its range's reserve: the first touch in a block
// builds every unbuilt router of the block in ascending id order, and
// each is adopted — stored in n.routers, with its dead ports and
// advertiser set — at its own first touch. Every phase walks routers in
// ascending id order, but light load touches them in random order;
// built one at a time, each router's objects would land next to
// whatever was built just before it rather than next to its id
// neighbours'. A fresh router holds no state that depends on when it is
// built, so "built" still means "touched", and results, checkpoints and
// presence bits are the same as building each router on its own.
func (n *Network) routerAt(id topology.NodeID) *router.Router {
	r := n.routers[id]
	if r == nil {
		r = n.fromReserve(n.shardOf(id), id)
		if n.rcfg.Org != router.OrgStaticFIFO {
			// Shared organizations advertise window deltas back to the
			// upstream router feeding each input port. Deltas ride the
			// same deterministic credit queues as plain refunds; adverts
			// originate only in phases executed by this node's owner
			// (arrivals, transmit) or by the coordinator while no body
			// runs (signals, fault sweeps), so the owner's sink is
			// race-free.
			node := id
			r.SetAdvertiser(func(port, vc, delta int) {
				up, upPort := n.upstreamOf(node, port)
				n.pushCreditEv(&n.shardOf(node).sink, creditEvent{
					node: int32(up), port: int16(upPort), vc: uint8(vc), w: int32(delta),
				})
			})
		}
		// A link that failed before this router's first touch must be
		// reflected in the fresh router's port state (failLink skips
		// unconstructed routers; they hold no worms to sweep).
		for p := 0; p < n.deg; p++ {
			l := n.linkAt(int(id), p)
			if l.exists && !l.up() {
				r.SetLinkDown(p)
			}
		}
		n.routers[id] = r //cr:sharded one-time deterministic store; a node is first-touched only by its owning shard
	}
	return r
}

// fromReserve takes node id's router, not yet built, out of range sh's
// reserve, first reserving id's block if it has no reservation.
func (n *Network) fromReserve(sh *shard, id topology.NodeID) *router.Router {
	blk := &sh.reserve[int(id)/routerBlock-sh.lo/routerBlock]
	if *blk == nil {
		*blk = new([routerBlock]*router.Router)
		first := int(id) / routerBlock * routerBlock
		for j := max(first, sh.lo); j < min(first+routerBlock, sh.hi); j++ {
			if n.routers[j] == nil {
				(*blk)[j-first] = router.New(topology.NodeID(j), n.topo, n.cfg.Alg, n.rcfg)
			}
		}
	}
	slot := &(*blk)[int(id)%routerBlock]
	r := *slot
	*slot = nil
	return r
}

// injectorAt returns node id's injector, constructing it on first touch.
func (n *Network) injectorAt(id topology.NodeID) *core.Injector {
	in := n.injectors[id]
	if in == nil {
		ports := make([]core.Port, n.cfg.InjectionChannels)
		for ch := range ports {
			ports[ch] = injPort{net: n, node: id, ch: ch}
		}
		in = core.NewInjector(n.ccfg, n.topo, id, ports, n.cfg.Seed)
		n.injectors[id] = in //cr:sharded one-time deterministic store; a node is first-touched only by its owning shard
	}
	return in
}

// receiverAt returns node id's receiver, constructing it on first touch.
func (n *Network) receiverAt(id topology.NodeID) *core.Receiver {
	rc := n.receivers[id]
	if rc == nil {
		rc = core.NewReceiver(n.ccfg, id, fkillPort{net: n, node: id})
		n.receivers[id] = rc //cr:sharded one-time deterministic store; a node is first-touched only by its owning shard
	}
	return rc
}

// injPort adapts a router injection channel to core.Port. Its methods
// run inside the injector phase, in the body of the node's own range,
// so all side effects flow through that range's sink.
type injPort struct {
	net  *Network
	node topology.NodeID
	ch   int
}

func (p injPort) Ready() bool {
	return p.net.routerAt(p.node).InjectionReady(p.ch)
}

func (p injPort) Free() int {
	return p.net.routerAt(p.node).InjectionFree(p.ch)
}

func (p injPort) Inject(f flit.Flit) {
	sh := p.net.shardOf(p.node)
	p.net.traceTo(&sh.sink, EvInject, p.node, p.ch, 0, f.Worm, int(f.Seq))
	sh.flitsInjected++
	sh.activeR.add(int32(p.node))
	p.net.routerAt(p.node).Inject(p.ch, f)
}

// Stamp and Unstamp queue a stamp record, or its withdrawal, in the
// source's range; the barrier that ends the phase hands it to the
// destination's receiver (mergeBarrier). A withdrawal from an FKILL the
// coordinator delivered (phaseSignals, failLink) waits in the range for
// the next barrier, before the injection phase it precedes.
func (p injPort) Stamp(dst topology.NodeID, worm flit.WormID, s flit.Stamps) {
	sh := p.net.shardOf(p.node)
	sh.stampOps = append(sh.stampOps, stampOp{dst: int32(dst), src: int32(p.node), worm: worm, add: true, s: s})
}

func (p injPort) Unstamp(dst topology.NodeID, worm flit.WormID) {
	sh := p.net.shardOf(p.node)
	sh.stampOps = append(sh.stampOps, stampOp{dst: int32(dst), src: int32(p.node), worm: worm})
}

func (p injPort) Kill(worm flit.WormID) {
	sk := &p.net.shardOf(p.node).sink
	r := p.net.routerAt(p.node)
	sig := router.Signal{Kind: router.KillFwd, Port: r.InjPort(p.ch), VC: 0, Worm: worm}
	sk.emitBuf = r.ApplySignal(sig, sk.emitBuf[:0])
	p.net.routeEmits(sk, p.node, sk.emitBuf)
}

// fkillPort lets a receiver tear worms down backward from its ejection
// channels; requests are queued and applied after the transmit phase.
type fkillPort struct {
	net  *Network
	node topology.NodeID
}

func (p fkillPort) FKill(ch int, worm flit.WormID) {
	sh := p.net.shardOf(p.node)
	sh.fkills = append(sh.fkills, fkillReq{node: p.node, ch: ch, worm: worm})
}

// Cycle returns the current simulation time.
func (n *Network) Cycle() int64 { return n.cycle }

// Topology returns the network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// SubmitMessage queues m at its source node's injector.
func (n *Network) SubmitMessage(m flit.Message) {
	n.shardOf(m.Src).activeI.add(int32(m.Src))
	n.injectorAt(m.Src).Submit(m)
}

// DrainDeliveries returns and clears all messages delivered since the
// last call. The returned slice is only valid until the call after
// next: the network alternates two buffers, so callers must copy
// anything they keep past one drain interval.
func (n *Network) DrainDeliveries() []core.Delivery {
	d := n.deliveries
	n.deliveries = n.drained[:0]
	n.drained = d
	return d
}

// CyclesSinceProgress returns how long no flit has moved or arrived;
// under CR this staying small is the liveness property.
func (n *Network) CyclesSinceProgress() int64 { return n.cycle - n.lastProgress }

// Links returns every existing link's id, for building fault schedules.
func (n *Network) Links() []faults.LinkID {
	var out []faults.LinkID
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			if n.linkAt(id, p).exists {
				out = append(out, faults.LinkID{Node: id, Port: p})
			}
		}
	}
	return out
}

// LinksOf enumerates every unidirectional link of a topology without
// constructing a network — the cheap way to build fault schedules
// before the (expensive) network exists.
func LinksOf(topo topology.Topology) []faults.LinkID {
	var out []faults.LinkID
	for id := 0; id < topo.Nodes(); id++ {
		for p := 0; p < topo.Degree(); p++ {
			if _, ok := topo.Neighbor(topology.NodeID(id), topology.Port(p)); ok {
				out = append(out, faults.LinkID{Node: id, Port: p})
			}
		}
	}
	return out
}

// LinkLoad reports one link's traversal count for utilization analysis.
type LinkLoad struct {
	Link  faults.LinkID
	Up    bool
	Flits int64
}

// LinkLoads returns every existing link's traversal count since the
// start of the run, in (node, port) order.
func (n *Network) LinkLoads() []LinkLoad {
	var out []LinkLoad
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			l := n.linkAt(id, p)
			if !l.exists {
				continue
			}
			out = append(out, LinkLoad{
				Link:  faults.LinkID{Node: id, Port: p},
				Up:    l.up(),
				Flits: l.flits,
			})
		}
	}
	return out
}

// RouterStats returns the sum of all routers' counters. An
// unconstructed (never-touched) router contributes zeros.
func (n *Network) RouterStats() router.Stats {
	var s router.Stats
	for _, r := range n.routers {
		if r != nil {
			s.Add(r.Stats())
		}
	}
	return s
}

// InjectorStats returns the sum of all injectors' counters.
func (n *Network) InjectorStats() core.InjStats {
	var s core.InjStats
	for _, in := range n.injectors {
		if in == nil {
			continue
		}
		o := in.Stats()
		s.Submitted += o.Submitted
		s.Completed += o.Completed
		s.Kills += o.Kills
		s.FKills += o.FKills
		s.StaleFKills += o.StaleFKills
		s.Failed += o.Failed
		s.Retries += o.Retries
		s.DataFlits += o.DataFlits
		s.PadFlits += o.PadFlits
		s.StallCycles += o.StallCycles
		s.LateFKills += o.LateFKills
	}
	return s
}

// ReceiverStats returns the sum of all receivers' counters.
func (n *Network) ReceiverStats() core.RecvStats {
	var s core.RecvStats
	for _, rc := range n.receivers {
		if rc == nil {
			continue
		}
		o := rc.Stats()
		s.Delivered += o.Delivered
		s.CorruptData += o.CorruptData
		s.FKillsSent += o.FKillsSent
		s.KilledPartial += o.KilledPartial
		s.DataFlits += o.DataFlits
		s.PadFlits += o.PadFlits
		s.OrderErrors += o.OrderErrors
	}
	return s
}

// TransientFaults returns how many flits were corrupted crossing a link.
func (n *Network) TransientFaults() int64 { return n.transients }

// DroppedKillSignals returns tear-down signals dropped at dead links
// (their work is completed by the dead-link sweep instead).
func (n *Network) DroppedKillSignals() int64 { return n.killsDropped }

// QueuedMessages returns the total backlog across all injectors.
func (n *Network) QueuedMessages() int {
	total := 0
	for _, in := range n.injectors {
		if in != nil {
			total += in.QueueLen()
		}
	}
	return total
}

// PendingWorms returns how many worms currently occupy router resources.
func (n *Network) PendingWorms() int {
	total := 0
	for _, r := range n.routers {
		if r != nil {
			total += r.ActiveWormCount()
		}
	}
	return total
}

// VCs returns the configured virtual-channel count per network port.
func (n *Network) VCs() int { return n.cfg.VCs }

// OccupancyPerVCInto returns the buffered flit count per network virtual
// channel index, summed across every router's network input ports
// (injection buffers are excluded; see InjectionOccupancy), in a
// caller-provided buffer (grown as needed) so the per-cycle sampler that
// builds occupancy time-series from it does not allocate.
func (n *Network) OccupancyPerVCInto(occ []int64) []int64 {
	occ = occ[:0]
	for vc := 0; vc < n.cfg.VCs; vc++ {
		occ = append(occ, 0)
	}
	for _, r := range n.routers {
		if r == nil {
			continue
		}
		for p := 0; p < n.deg; p++ {
			for vc := 0; vc < n.cfg.VCs; vc++ {
				occ[vc] += int64(r.BufferedAt(p, vc))
			}
		}
	}
	return occ
}

// InjectionOccupancy returns the flits buffered in injection channels
// across all routers.
func (n *Network) InjectionOccupancy() int64 {
	var occ int64
	for _, r := range n.routers {
		if r == nil {
			continue
		}
		for ch := 0; ch < n.cfg.InjectionChannels; ch++ {
			occ += int64(r.BufferedAt(n.deg+ch, 0))
		}
	}
	return occ
}

// InFlightFlits returns how many flits are currently crossing links. At
// a cycle boundary the ranges' busy-link entries are exactly the busy
// links, so this costs O(ranges), not O(links).
func (n *Network) InFlightFlits() int64 {
	var c int64
	for i := range n.shards {
		c += int64(len(n.shards[i].busyLinks))
	}
	return c
}

// LinkFlits returns the cumulative flit traversals across all links
// since the start of the run; divided by links x cycles it gives the
// network-wide link utilization.
func (n *Network) LinkFlits() int64 {
	var c int64
	for i := range n.links {
		c += n.links[i].flits
	}
	return c
}

// LinkCount returns the number of existing unidirectional links.
func (n *Network) LinkCount() int { return n.linkCount }
