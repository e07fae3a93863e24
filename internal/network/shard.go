package network

import (
	"runtime"
	"sync/atomic"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/topology"
)

// The cycle kernel over node ranges (see DESIGN.md §5 and §10).
//
// The node set is split into contiguous id ranges: one covering every
// node when Config.Shards <= 1, Config.Shards of them otherwise. Each
// phase of a cycle (Step, engine.go) runs either on the coordinator —
// the goroutine that called Step — for the phases whose iteration order
// is queue order rather than node order (signals, fault events, the
// arrivals prepass), or once per range through forkJoin, with a barrier
// between phases. A phase body touches only state owned by its range —
// routers, injectors, receivers, output links, worklists — and pushes
// every cross-node side effect into the range's own sink; the
// coordinator merges the sinks *in range order* at each barrier.
// Because ranges are contiguous ascending id ranges and every body
// walks its worklist ascending, concatenating the per-range queues in
// range order is the sequence a single walk over all nodes appends —
// which is why results (traces, signal queues, delivery streams, stats)
// are byte-identical for every range count. One range is the serial
// case: forkJoin calls its body inline, and the merge is a plain move.
//
// Credits are the one cross-range flow that may target any node, so
// they travel through a matrix with one row per execution context — the
// coordinator, then each range — and one column per destination range.
// A range holds its own column (inCredits); every context appends to its
// own row of the destination's column, and in the credits phase each
// body applies its column to its own routers. Credit application is
// commutative (pure counter increments, read only by the next cycle's
// allocate), so only the multiset matters, and the matrix needs no
// global ordering.

// sink collects the cross-node side effects of one execution context:
// the coordinator's (embedded in Network) or one range's. Appends are
// always made by the context that owns the sink; merging into the
// coordinator's happens only at barriers, on the coordinator.
type sink struct {
	signals    []scheduledSignal
	deliveries []core.Delivery
	emitBuf    []router.Emit

	// row is this context's row of the credit matrix: 0 for the
	// coordinator, 1+i for range i.
	row int

	// events buffers trace events: phase bodies cannot call the tracer
	// concurrently, so every context records and the coordinator replays
	// in range order at the barrier.
	events []Event

	killsDropped  int64
	flitsInjected int64
	flitsEjected  int64
}

// reset empties the sink's queues and counters, keeping capacity.
func (s *sink) reset() {
	s.signals = s.signals[:0]
	s.deliveries = s.deliveries[:0]
	s.emitBuf = s.emitBuf[:0]
	s.events = s.events[:0]
	s.killsDropped, s.flitsInjected, s.flitsEjected = 0, 0, 0
}

// shard owns one contiguous node range: those nodes'
// routers/injectors/receivers, their output links, and the activity
// worklists over them (see step.go for the maintenance protocol).
type shard struct {
	sink

	activeR   nodeSet    // this range's routers with buffered flits
	activeI   nodeSet    // this range's injectors with pending work
	busyLinks []inFlight // this range's output links carrying a flit, with the flit
	recvPend  nodeSet    // this range's receivers that accepted a flit this cycle
	fkills    []fkillReq
	stampOps  []stampOp   // this range's injectors' stamp records, bound for their destinations
	lostHeads []flit.Flit // heads dropped in this range, whose records go (loseHead)

	// inCredits is this range's column of the credit matrix: the refunds
	// addressed to its routers, one queue per sending context (sink.row).
	inCredits [][]creditEvent

	// arrivals is this cycle's bucket of in-flight entries whose flit
	// lands in this range, filled by the coordinator's arrivals prepass in
	// global (node, port) order. The entries point into the upstream
	// ranges' busy lists, which nothing appends to before the transmit
	// phase, so the flit is handed on without a copy.
	arrivals []*inFlight

	// moved reports switch-transmission progress in this range's transmit
	// phase; the barrier ORs it into the cycle's progress flag.
	moved bool
	// panicked carries a body's panic to the coordinator's re-raise.
	panicked any

	// lo and hi bound the range's node ids; checkErr is the first
	// inconsistency the range's part of the consistency walk found, and
	// awaited and carried its stamp-record counts (checkNode).
	lo, hi           int
	checkErr         error
	awaited, carried int

	// reserve holds the routers built ahead of their first touch, one
	// entry per routerBlock-aligned block the range overlaps (block
	// id/routerBlock - lo/routerBlock); nil until the block is reserved.
	// See routerAt.
	reserve []*[routerBlock]*router.Router

	// The range's worker handoff (ranges 1.. of a forked network; see
	// forkJoin and rangeWorker): state is one of the worker states
	// below. A claim sets net and phase, the body to run, before it
	// publishes workerClaimed; whoever takes the claim, the worker or
	// the coordinator, clears net, so between claims the worker holds
	// no reference to the Network. spin is the worker's budget of
	// yields for its next claim; only workers touch it after initShards,
	// and each passes it to the next through the exit CAS and the claim
	// that starts it. start is rangeWorker bound to the range once by
	// initShards, so starting a worker allocates nothing.
	state atomic.Int32
	spin  int32
	net   *Network
	phase shardPhase
	start func()
}

func (sh *shard) reset() {
	sh.sink.reset()
	sh.activeR.reset()
	sh.activeI.reset()
	sh.busyLinks = sh.busyLinks[:0]
	sh.recvPend.reset()
	sh.fkills = sh.fkills[:0]
	sh.stampOps = sh.stampOps[:0]
	sh.lostHeads = sh.lostHeads[:0]
	for r := range sh.inCredits {
		sh.inCredits[r] = sh.inCredits[r][:0]
	}
	sh.arrivals = sh.arrivals[:0]
	sh.moved = false
}

// initShards builds the range partition: s ranges, at least one and at
// most one per node. The first (nodes mod s) ranges are one node larger,
// so every count — dividing the node count or not — yields a total,
// contiguous, ascending partition.
func (n *Network) initShards(s int) {
	if s < 1 {
		s = 1
	}
	if s > n.nodes {
		s = n.nodes
	}
	n.shards = make([]shard, s)
	if s > 1 {
		n.joined = make(chan struct{}, 1)
	}
	n.nodeShard = make([]int32, n.nodes)
	per, rem := n.nodes/s, n.nodes%s
	lo := 0
	for i := range n.shards {
		size := per
		if i < rem {
			size++
		}
		sh := &n.shards[i]
		sh.row = 1 + i
		sh.lo, sh.hi = lo, lo+size
		sh.activeR = newNodeSet(sh.lo, sh.hi)
		sh.activeI = newNodeSet(sh.lo, sh.hi)
		sh.recvPend = newNodeSet(sh.lo, sh.hi)
		sh.inCredits = make([][]creditEvent, 1+s)
		sh.reserve = make([]*[routerBlock]*router.Router, (sh.hi-1)/routerBlock-sh.lo/routerBlock+1)
		sh.start = func() { rangeWorker(sh) }
		sh.spin = spinYields
		for id := lo; id < lo+size; id++ {
			n.nodeShard[id] = int32(i)
		}
		lo += size
	}
}

// shardOf returns the range owning node. In forked phases the executing
// body is always node's owner, so the range's sink and worklists are
// safe to append to without synchronization. One range needs no
// nodeShard read, a miss on a big network's credit and prepass paths.
func (n *Network) shardOf(node topology.NodeID) *shard {
	if len(n.shards) == 1 {
		return &n.shards[0]
	}
	return &n.shards[n.nodeShard[node]]
}

// pushCredit queues one deferred credit refund toward (node, port, vc),
// filed in the sending context's row of the *destination* node's range.
func (n *Network) pushCredit(sk *sink, node topology.NodeID, port, vc, cnt int) {
	n.pushCreditEv(sk, creditEvent{node: int32(node), port: int16(port), vc: uint8(vc), n: int32(cnt)})
}

// pushCreditEv queues a fully formed credit event (plain refunds and/or
// a window-advertisement delta) through the same routing as pushCredit.
func (n *Network) pushCreditEv(sk *sink, ev creditEvent) {
	in := n.shardOf(topology.NodeID(ev.node)).inCredits
	in[sk.row] = append(in[sk.row], ev)
}

// shardPhase selects the per-range body in forkJoin.
type shardPhase uint8

const (
	spArrivals shardPhase = iota
	spInjectors
	spAllocate
	spTransmit
	spCredits
	spCheck
)

// Worker states (shard.state).
const (
	workerGone     int32 = iota // no goroutine: the next fork starts one
	workerSpinning              // between bodies, yielding until a claim or its budget ends
	workerClaimed               // handed a body it has not started
	workerRunning               // running its claimed body
	workerRecalled              // its claim ran on the coordinator: it exits unless claimed first
)

// spinYields bounds a wait between phases, counted in runtime.Gosched
// yields rather than time: the coordinator's for the join before it
// blocks, and a range worker's for its next claim before it exits (a
// worker's budget starts here and adapts; see rangeWorker). It is long
// enough for a worker to outlast the gap between two Steps of a
// stepping loop, and 4 000 is the smallest budget at which sat64-shard2's
// throughput stopped rising (DESIGN.md §10).
const spinYields = 4000

// forkJoin runs one per-range phase, full barrier before returning. A
// single range runs inline on the caller's goroutine. With several, the
// coordinator hands ranges 1.. to their workers, runs range 0 itself,
// then takes back every claim whose worker has not started it and runs
// that range too, and waits for the rest. A worker that is not on a
// core when the coordinator gets there — the cores are busy with other
// work, or the phase was short — costs the fork nothing but the claim;
// only a body a worker has begun is waited for. A worker that finished
// its last body spins for a claim, within a budget that adapts to
// whether spinning pays (rangeWorker); one that gave up and exited is
// started again here, through the CAS that keeps an exit and a claim
// from both winning. So a stepping network keeps its workers awake,
// and an idle one holds no goroutines and needs no Close.
//
// The join counts the ranges not yet run plus one token of the
// coordinator's own: the coordinator spins until only its token is
// left, and otherwise gives the token up and blocks on joined, which
// the worker that drops the count to zero fills. A fork allocates
// nothing.
//
// A panic in a body is carried back and re-raised here, on the caller's
// goroutine, where the caller's recover (harness.SweepSafe, a test) can
// see it as it would with one range; the lowest range wins so the
// outcome does not depend on scheduling. The re-raised value is the
// original one — a worker's stack is gone, and one range (same results,
// by construction) is the way to get it.
func (n *Network) forkJoin(ph shardPhase) {
	if len(n.shards) == 1 {
		n.shardRun(&n.shards[0], ph)
		return
	}
	n.pending.Store(int32(len(n.shards)))
	for i := 1; i < len(n.shards); i++ {
		sh := &n.shards[i]
		sh.net, sh.phase = n, ph
		if sh.state.Swap(workerClaimed) == workerGone {
			go sh.start()
		}
	}
	n.runGuarded(&n.shards[0], ph)
	for i := 1; i < len(n.shards); i++ {
		if sh := &n.shards[i]; sh.state.CompareAndSwap(workerClaimed, workerRecalled) {
			sh.net = nil
			n.runGuarded(sh, ph)
			n.pending.Add(-1)
		}
	}
	n.join()
	var first any
	for i := len(n.shards) - 1; i >= 0; i-- {
		if p := n.shards[i].panicked; p != nil {
			first, n.shards[i].panicked = p, nil
		}
	}
	if first != nil {
		panic(first)
	}
}

// join waits for every worker of the current fork (see forkJoin).
func (n *Network) join() {
	for i := 0; i < spinYields; i++ {
		if n.pending.Load() == 1 {
			return
		}
		runtime.Gosched()
	}
	if n.pending.Add(-1) != 0 {
		<-n.joined
	}
}

// rangeWorker runs the range's claims until it finds one recalled or
// its spin for the next one runs out, and then exits. Both say the
// spin is not paying. A recall says the worker was not on a core when
// its claim came. A spin that runs out says the coordinator did not
// come back within the budget: it stopped stepping, or the host ran
// something else in its place. So either exit halves the range's
// budget, and each claim the worker takes grows it back by a sixteenth
// of spinYields. On a quiet host the budget stays near spinYields; on
// a contended one it falls towards a worker started per fork, where
// the recalls keep the fork from waiting for it.
func rangeWorker(sh *shard) {
	for i := 0; ; i++ {
		if sh.state.CompareAndSwap(workerClaimed, workerRunning) {
			n := sh.net
			sh.net = nil
			n.shardClaim(sh)
			sh.spin = min(sh.spin+spinYields/16, spinYields)
			i = 0
		} else if st := sh.state.Load(); st == workerRecalled || st == workerSpinning && i >= int(sh.spin) {
			sh.spin /= 2 // before the exit CAS: once gone, the next worker owns spin
			if sh.state.CompareAndSwap(st, workerGone) {
				return
			}
		} else {
			runtime.Gosched()
		}
	}
}

// shardClaim runs one claimed body on the range's worker and hands the
// range back. The state turns workerSpinning before the join count
// drops, so the next fork, which starts only after the join, finds it
// claimable.
func (n *Network) shardClaim(sh *shard) {
	n.runGuarded(sh, sh.phase)
	sh.state.Store(workerSpinning)
	if n.pending.Add(-1) == 0 {
		n.joined <- struct{}{}
	}
}

// runGuarded runs one range's body, keeping its panic for forkJoin.
func (n *Network) runGuarded(sh *shard, ph shardPhase) {
	defer func() { sh.panicked = recover() }()
	n.shardRun(sh, ph)
}

func (n *Network) shardRun(sh *shard, ph shardPhase) {
	switch ph {
	case spArrivals:
		n.shardArrivals(sh)
	case spInjectors:
		n.shardInjectors(sh)
	case spAllocate:
		n.shardAllocate(sh)
	case spTransmit:
		n.shardTransmit(sh)
	case spCredits:
		n.shardCredits(sh)
	case spCheck:
		n.shardCheck(sh)
	}
}

// mergeBarrier drains the coordinator's buffered trace events and then
// every range sink into the coordinator's, in range order, and reports
// whether any range's transmit moved a flit. Ranges are contiguous
// ascending node ranges and each phase body iterates ascending, so this
// concatenation is the append order of one walk over all nodes;
// buffered trace events replay the same way.
//
// It also hands each range's stamp records, their withdrawals and its
// lost heads to their destinations' receivers. Those of one source keep
// their order, and records of different keys commute, so what a
// receiver holds after the barrier does not depend on the range count. A record made this cycle
// is in place before its head can arrive, which takes a link traversal.
func (n *Network) mergeBarrier() bool {
	n.flushEvents(&n.sink)
	moved := false
	for i := range n.shards {
		sh := &n.shards[i]
		n.flushEvents(&sh.sink)
		if len(sh.signals) > 0 {
			n.signals = append(n.signals, sh.signals...)
			sh.signals = sh.signals[:0]
		}
		if len(sh.deliveries) > 0 {
			n.deliveries = append(n.deliveries, sh.deliveries...)
			sh.deliveries = sh.deliveries[:0]
		}
		for i := range sh.stampOps {
			op := &sh.stampOps[i]
			if op.add {
				n.receiverAt(topology.NodeID(op.dst)).Stamp(op.worm, topology.NodeID(op.src), op.s)
			} else if rc := n.receivers[op.dst]; rc != nil {
				rc.Unstamp(op.worm, topology.NodeID(op.src))
			}
		}
		sh.stampOps = sh.stampOps[:0]
		for i := range sh.lostHeads {
			if rc := n.receivers[sh.lostHeads[i].Dst]; rc != nil {
				rc.Lose(&sh.lostHeads[i])
			}
		}
		sh.lostHeads = sh.lostHeads[:0]
		n.killsDropped += sh.killsDropped
		n.flitsInjected += sh.flitsInjected
		n.flitsEjected += sh.flitsEjected
		sh.killsDropped, sh.flitsInjected, sh.flitsEjected = 0, 0, 0
		moved = moved || sh.moved
		sh.moved = false
	}
	return moved
}

// prepassArrivals is the coordinator's half of the arrivals phase: it
// walks every range's busy-link worklist in range order (= ascending
// (node, port), the order a full scan visits them), clears link
// occupancy, applies transient corruption to each entry's flit in place,
// emits the arrival traces in that order, and buckets each entry under
// the *downstream* node's range for the per-range apply. Corruption is
// keyed by (link, cycle) and a link's burst state is its own, so no draw
// depends on the walk order; the trace order and the buckets still do.
// The lists are emptied here but their entries stay put until the
// transmit phase appends over them, after every range has applied its
// arrivals. It reports whether any flit arrived.
func (n *Network) prepassArrivals() bool {
	any := false
	for si := range n.shards {
		sh := &n.shards[si]
		for i := range sh.busyLinks {
			e := &sh.busyLinks[i]
			idx := int(e.ref.node)*n.deg + int(e.ref.port)
			l := &n.links[idx]
			if !l.busy {
				continue // dropped by a fault after launch
			}
			any = true
			l.busy = false
			if n.corrupt(l, uint64(idx), &e.f) {
				n.trace(EvCorrupt, topology.NodeID(l.toNode), int(l.toPort), int(e.vc), e.f.Worm, int(e.f.Seq))
			}
			n.trace(EvArrive, topology.NodeID(l.toNode), int(l.toPort), int(e.vc), e.f.Worm, int(e.f.Seq))
			dst := n.shardOf(topology.NodeID(l.toNode))
			dst.arrivals = append(dst.arrivals, e)
		}
		sh.busyLinks = sh.busyLinks[:0]
	}
	return any
}

// corrupt applies the configured corruption process to f as it crosses
// link l (flat index idx) this cycle: the i.i.d. rate, or the rate of
// the link's Gilbert-Elliott state, whose chain it advances.
func (n *Network) corrupt(l *link, idx uint64, f *flit.Flit) bool {
	rate := n.cfg.TransientRate
	if b := n.cfg.Burst; b != nil {
		rate, l.bad = b.Traverse(l.bad, n.cfg.Seed, idx, n.cycle)
	}
	if !faults.Corrupt(f, rate, n.cfg.Seed, idx, n.cycle) {
		return false
	}
	n.transients++
	return true
}

// shardArrivals applies this range's bucketed arrivals: hand each flit
// to its (owned) downstream router, refund the upstream credit of an
// absorbed tear-down straggler through the matrix, and activate the
// router.
func (n *Network) shardArrivals(sh *shard) {
	sk := &sh.sink
	for _, e := range sh.arrivals {
		l := n.linkAt(int(e.ref.node), int(e.ref.port))
		if n.routerAt(topology.NodeID(l.toNode)).AcceptRef(int(l.toPort), int(e.vc), &e.f) {
			n.pushCredit(sk, topology.NodeID(e.ref.node), int(e.ref.port), int(e.vc), 1)
			if e.f.Kind == flit.Head {
				n.loseHead(topology.NodeID(l.toNode), &e.f)
			}
		}
		sh.activeR.add(l.toNode)
	}
	sh.arrivals = sh.arrivals[:0]
}

// shardInjectors advances the protocol engine of every injector in this
// range with pending work. An injector without it is pruned until the
// next SubmitMessage re-activates it.
func (n *Network) shardInjectors(sh *shard) {
	set := &sh.activeI
	for w := set.word(0); w >= 0; w = set.word(w + 1) {
		for m := set.words[w]; m != 0; m &= m - 1 {
			id := set.id(w, m)
			in := n.injectors[id]
			in.Tick(n.cycle)
			if !hasWork(in) {
				set.drop(id)
			}
		}
	}
}

// hasWork reports whether injector in has work for its next Tick: a
// channel sending or backing off, or a queued message. An injector whose
// channels are all idle and whose queue is empty provably does nothing
// in Tick.
func hasWork(in *core.Injector) bool { return in.Busy() || in.QueueLen() > 0 }

// shardAllocate routes waiting headers and claims output channels.
func (n *Network) shardAllocate(sh *shard) {
	sk := &sh.sink
	set := &sh.activeR
	for w := set.word(0); w >= 0; w = set.word(w + 1) {
		for m := set.words[w]; m != 0; m &= m - 1 {
			id := set.id(w, m)
			sk.emitBuf = n.routers[id].RouteAndAllocate(sk.emitBuf[:0])
			if len(sk.emitBuf) > 0 {
				n.routeEmits(sk, topology.NodeID(id), sk.emitBuf)
			}
		}
	}
}

// shardTransmit forwards one flit per output channel per router; ejected
// flits reach receivers, network flits enter links, dequeues earn
// deferred upstream credits. Routers left with no buffered flits are
// pruned from the active set; a future arrival or injection re-adds
// them.
//
// It then applies the backward tear-downs its receivers requested during
// the walk (local; propagation next cycle). A request is filed at the
// receiver's own node, so the queue holds only this range's nodes, in
// node order. Nothing here reaches another range: a concurrent transmit
// elsewhere touches none of this range's routers, injectors or
// credit-matrix rows. Transmit appends no signals and the tear-downs
// append no trace events, so the merged queues hold every range's
// transmit traces and then every range's tear-down signals, each in
// node order, as if the tear-downs ran after all of transmit.
// Deliveries are collected after the tear-downs (credits phase), so a
// rejected worm never appears in the same cycle's output.
func (n *Network) shardTransmit(sh *shard) {
	set := &sh.activeR
	for w := set.word(0); w >= 0; w = set.word(w + 1) {
		for m := set.words[w]; m != 0; m &= m - 1 {
			id := set.id(w, m)
			if n.transmitRouter(sh, int(id)) {
				sh.moved = true
			}
			if !n.routers[id].Busy() {
				set.drop(id)
			}
		}
	}

	sk := &sh.sink
	for _, req := range sh.fkills {
		r := n.routers[req.node]
		sig := router.Signal{Kind: router.KillBwd, Port: r.EjPort(req.ch), VC: 0, Worm: req.worm}
		sk.emitBuf = r.ApplySignal(sig, sk.emitBuf[:0])
		n.routeEmits(sk, req.node, sk.emitBuf)
	}
	sh.fkills = sh.fkills[:0]
}

// shardCredits applies this range's column of the credit matrix to its
// routers (credits earned this cycle become visible next), then collects
// deliveries. The coordinator's row — refunds from signal delivery and
// fault sweeps — may name a router nothing has touched yet, which is
// then built here, by its owner. Only receivers that accepted a flit
// this cycle can hold deliveries, so only those (recvPend, walked in
// ascending node order) are drained.
func (n *Network) shardCredits(sh *shard) {
	for r, cell := range sh.inCredits {
		for _, c := range cell {
			rt := n.routers[c.node]
			if rt == nil {
				rt = n.routerAt(topology.NodeID(c.node))
			}
			rt.ApplyCredit(int(c.port), int(c.vc), int(c.n), int(c.w))
		}
		sh.inCredits[r] = cell[:0]
	}
	set := &sh.recvPend
	for w := set.word(0); w >= 0; w = set.word(w + 1) {
		for m := set.words[w]; m != 0; m &= m - 1 {
			id := set.id(w, m)
			n.drainReceiver(&sh.sink, int(id), n.receivers[id])
		}
	}
	set.reset()
}
