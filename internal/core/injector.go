package core

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/topology"
)

// Port is one injection channel into the local router, provided by the
// network. Free/Inject mirror the router's injection buffer; Kill
// applies an out-of-band forward kill to the channel's current worm and
// propagates the tear-down into the network; Stamp and Unstamp hand an
// attempt's phase timestamps to the destination, which joins them into
// the attempt's delivery.
type Port interface {
	// Ready reports whether the channel is idle and empty, so a new
	// worm's head may enter. The previous worm's tail must have left the
	// injection buffer before the next worm starts (wormhole channels
	// carry one worm at a time).
	Ready() bool
	// Free returns the free flit slots of the channel's buffer.
	Free() int
	// Inject appends one flit; the caller must have checked Free.
	Inject(f flit.Flit)
	// Kill tears down the given worm starting at this injection channel.
	Kill(worm flit.WormID)
	// Stamp records the phase timestamps of the attempt whose head the
	// channel has just injected, once per attempt, with the receiver of
	// dst (see Receiver.Stamp).
	Stamp(dst topology.NodeID, worm flit.WormID, s flit.Stamps)
	// Unstamp withdraws them when the attempt is torn down while the
	// channel is still sending it (a timeout kill or an FKILL), so it
	// will not be delivered.
	Unstamp(dst topology.NodeID, worm flit.WormID)
}

// chState is the per-injection-channel protocol engine state machine.
type chState struct {
	phase   chPhase
	frame   flit.Frame
	imin    int // commit threshold in injected flits (timeout kills allowed below it)
	next    int // next flit sequence to inject
	stall   int // consecutive cycles injection made no progress
	retryAt int64

	// Phase-timestamp bookkeeping for the latency decomposition: the
	// head-injection cycle of attempt 0, the cumulative cycles spent in
	// chWaiting (retransmission backoff), and when the current wait
	// began. Recorded through Port.Stamp when each attempt's head is
	// injected (see flit.Stamps), with the frame's message creation
	// time.
	firstInject int64
	backoff     int64
	waitStart   int64
}

type chPhase int

const (
	chIdle chPhase = iota
	chSending
	chWaiting // backoff before retransmission
)

// InjStats counts injector-side protocol events.
type InjStats struct {
	Submitted   int64 // messages accepted into the queue
	Completed   int64 // worms fully injected (source-side completion)
	Kills       int64 // timeout kills issued
	FKills      int64 // backward FKILLs received (FCR retransmissions)
	StaleFKills int64 // FKILLs for worms no longer being sent
	Failed      int64 // messages abandoned after MaxAttempts
	Retries     int64 // retransmission attempts started
	DataFlits   int64 // data flits injected (including heads)
	PadFlits    int64 // protocol padding flits injected
	StallCycles int64 // injection-blocked cycles while sending
	LateFKills  int64 // FKILLs after the worm completed (must be 0; pad bound check)
}

// Failure records one message abandoned after exhausting its attempts,
// for the watchdog's delivery-obligation check: an abandonment is only
// legitimate if the fault schedule actually disconnected Src from Dst.
type Failure struct {
	Msg      flit.MessageID
	Src, Dst topology.NodeID
	Created  int64 // message creation cycle
	Cycle    int64 // abandonment cycle
	Attempts int
}

// maxFailureRecords bounds the per-injector failure log so a pathological
// run cannot grow memory without bound; counters in InjStats stay exact.
const maxFailureRecords = 1024

// Injector is one node's transmission engine. It owns a FIFO of pending
// messages and drives one protocol state machine per injection channel.
// Messages are transmitted serially per channel and a killed message
// retries in place, so injection order per channel matches submission
// order. The paper's order-preservation property — per source/destination
// pair FIFO delivery — follows when both interfaces use a single channel:
// serial injection orders the worms and the destination's single ejection
// channel serializes their completion. Multi-channel interfaces trade
// this ordering for bandwidth (a later message may overtake a congested
// earlier one through the second ejection channel).
type Injector struct {
	cfg   Config            //cr:nosnap construction parameters
	topo  topology.Topology //cr:nosnap immutable, supplied by the constructor
	node  topology.NodeID   //cr:nosnap node identity, fixed at construction
	ports []Port            //cr:nosnap port adapters, rewired by the owner after restore
	chs   []chState
	// queue[qhead:] holds the pending messages; the consumed prefix is
	// compacted away periodically so steady-state popping neither shifts
	// elements nor reallocates.
	queue []flit.Message
	qhead int
	seed  uint64 //cr:nosnap configuration: keys the jitter draws
	stats InjStats

	failures []Failure
}

// NewInjector returns an injector for node using the given injection
// channels. seed keys the retransmission jitter: like Ethernet's binary
// exponential backoff, CR must randomize retransmission gaps or
// colliding worms retry in lockstep and livelock. It panics on invalid
// configuration.
func NewInjector(cfg Config, topo topology.Topology, node topology.NodeID, ports []Port, seed uint64) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(ports) == 0 {
		panic("core: injector needs at least one port")
	}
	return &Injector{
		cfg:   cfg,
		topo:  topo,
		node:  node,
		ports: ports,
		chs:   make([]chState, len(ports)),
		seed:  seed,
	}
}

// backoffGap returns the jittered retransmission gap channel i draws at
// cycle now after a failed attempt: the policy gap plus a uniform random
// extension of up to the same length, breaking retry synchronization
// between colliding sources. The extension is a keyed draw on (node,
// channel, cycle), so it carries no generator state.
func (in *Injector) backoffGap(now int64, i, attempt int) int64 {
	g := in.cfg.Backoff.GapFor(attempt)
	entity := uint64(in.node)*uint64(len(in.chs)) + uint64(i)
	return int64(g + rng.Intn(rng.At(in.seed, rng.Jitter, entity, uint64(now)), g+1))
}

// Stats returns a copy of the injector's counters.
func (in *Injector) Stats() InjStats { return in.stats }

// Channel reports injection channel i's worm (the attempt it is sending,
// backing off from, or last sent), how many of that attempt's flits it
// has injected, and whether it is sending or backing off; an idle
// channel is neither.
func (in *Injector) Channel(i int) (worm flit.WormID, next int, sending, waiting bool) {
	ch := &in.chs[i]
	return ch.frame.WormID(), ch.next, ch.phase == chSending, ch.phase == chWaiting
}

// Failures returns the abandoned-message records (capped at 1024; the
// Failed counter in Stats is always exact).
func (in *Injector) Failures() []Failure { return in.failures }

// QueueLen returns the number of submitted messages not yet being sent.
func (in *Injector) QueueLen() int { return len(in.queue) - in.qhead }

// Busy reports whether any channel is sending or backing off.
func (in *Injector) Busy() bool {
	for i := range in.chs {
		if in.chs[i].phase != chIdle {
			return true
		}
	}
	return false
}

// minQueue is the message capacity an injector's queue starts with: a
// node below saturation rarely has more pending, so its queue is not
// regrown one message at a time long after warmup.
const minQueue = 8

// Submit queues a message for transmission.
func (in *Injector) Submit(m flit.Message) {
	if err := m.Validate(in.topo.Nodes()); err != nil {
		panic(err)
	}
	in.stats.Submitted++
	if cap(in.queue) == 0 {
		in.queue = make([]flit.Message, 0, minQueue)
	}
	in.queue = append(in.queue, m)
}

// maxPathHops returns the path-length bound used for slack computations
// on a given attempt: the minimal distance, widened by the detour budget
// once misrouting is permitted.
func (in *Injector) maxPathHops(dst topology.NodeID, attempt int) int {
	d := in.topo.Distance(in.node, dst)
	if in.cfg.MisrouteAfter > 0 && attempt >= in.cfg.MisrouteAfter {
		d += 2 * in.cfg.MaxDetours
	}
	return d
}

// buildFrame frames a message for the given attempt, applying the
// protocol's padding rule, and returns the frame plus the commit
// threshold (imin) below which timeout kills are permitted.
func (in *Injector) buildFrame(m flit.Message, attempt int) (flit.Frame, int) {
	dist := in.maxPathHops(m.Dst, attempt)
	switch in.cfg.Protocol {
	case Plain:
		return flit.Frame{Msg: m, Attempt: attempt}, 0
	case CR:
		imin := IminCR(dist, in.cfg.BufDepth)
		pad := clampPad(imin-m.DataLen+in.cfg.PadAdjust, 0)
		return flit.Frame{Msg: m, Attempt: attempt, PadLen: pad}, imin
	case FCR:
		total := IminFCR(m.DataLen, dist, in.cfg.BufDepth)
		pad := clampPad(total-m.DataLen+in.cfg.PadAdjust, 0)
		// Timeout kills are only safe (and only needed) before the
		// header is provably consumed.
		return flit.Frame{Msg: m, Attempt: attempt, PadLen: pad}, IminCR(dist, in.cfg.BufDepth)
	default:
		panic(fmt.Sprintf("core: bad protocol %v", in.cfg.Protocol))
	}
}

func (in *Injector) timeout(fr flit.Frame) int {
	if in.cfg.Timeout > 0 {
		return in.cfg.Timeout
	}
	vcs := in.cfg.VCs
	if vcs < 1 {
		vcs = 1
	}
	return fr.TotalLen() * vcs
}

// clampPad floors a pad length at min.
func clampPad(pad, min int) int {
	if pad < min {
		return min
	}
	return pad
}

// Tick advances every channel by one cycle: starting queued messages,
// injecting at most one flit per channel, detecting stall timeouts, and
// resuming after backoff.
func (in *Injector) Tick(now int64) {
	for i := range in.chs {
		in.tickChannel(now, i)
	}
}

func (in *Injector) tickChannel(now int64, i int) {
	ch := &in.chs[i]
	switch ch.phase {
	case chIdle:
		if in.qhead == len(in.queue) || !in.ports[i].Ready() {
			return
		}
		m := in.queue[in.qhead]
		in.qhead++
		if in.qhead == len(in.queue) {
			// Drained: rewind onto the retained backing array.
			in.queue = in.queue[:0]
			in.qhead = 0
		} else if in.qhead >= 64 && in.qhead*2 >= len(in.queue) {
			// Compact the consumed prefix so the array stops growing.
			n := copy(in.queue, in.queue[in.qhead:])
			in.queue = in.queue[:n]
			in.qhead = 0
		}
		ch.frame, ch.imin = in.buildFrame(m, 0)
		ch.phase = chSending
		ch.next = 0
		ch.stall = 0
		ch.firstInject = -1
		ch.backoff = 0
		in.inject(now, i)
	case chSending:
		in.inject(now, i)
	case chWaiting:
		if now < ch.retryAt || !in.ports[i].Ready() {
			return
		}
		ch.backoff += now - ch.waitStart
		attempt := ch.frame.Attempt + 1
		if attempt >= in.cfg.maxAttempts() || attempt >= flit.MaxAttempts {
			in.stats.Failed++
			if len(in.failures) < maxFailureRecords {
				in.failures = append(in.failures, Failure{
					Msg: ch.frame.Msg.ID, Src: ch.frame.Msg.Src, Dst: ch.frame.Msg.Dst,
					Created: ch.frame.Msg.CreateTime, Cycle: now, Attempts: attempt,
				})
			}
			ch.phase = chIdle
			// Try to start the next message this cycle.
			in.tickChannel(now, i)
			return
		}
		in.stats.Retries++
		ch.frame, ch.imin = in.buildFrame(ch.frame.Msg, attempt)
		ch.phase = chSending
		ch.next = 0
		ch.stall = 0
		in.inject(now, i)
	}
}

// inject attempts to push one flit of the current frame.
func (in *Injector) inject(now int64, i int) {
	ch := &in.chs[i]
	port := in.ports[i]
	if port.Free() == 0 {
		in.stalled(now, i)
		return
	}
	f := ch.frame.FlitAt(ch.next)
	port.Inject(f)
	if ch.next == 0 {
		// Record this attempt's phase timestamps with its destination,
		// which joins them into the delivery so the observability layer
		// can decompose end-to-end latency.
		if ch.firstInject < 0 {
			ch.firstInject = now
		}
		port.Stamp(ch.frame.Msg.Dst, f.Worm, flit.Stamps{
			Create:        ch.frame.Msg.CreateTime,
			FirstInject:   ch.firstInject,
			AttemptInject: now,
			Backoff:       ch.backoff,
		})
	}
	ch.next++
	ch.stall = 0
	if f.Kind == flit.Pad {
		in.stats.PadFlits++
	} else {
		in.stats.DataFlits++
	}
	if ch.next == ch.frame.TotalLen() {
		in.stats.Completed++
		ch.phase = chIdle
	}
}

// stalled advances the stall clock and kills the worm when a potential
// deadlock is detected: the source has been unable to inject for the
// timeout period while the worm is not yet committed (fewer than imin
// flits in the network, so the header may still be blocked in a cycle).
func (in *Injector) stalled(now int64, i int) {
	ch := &in.chs[i]
	in.stats.StallCycles++
	ch.stall++
	if in.cfg.Protocol == Plain {
		return
	}
	if ch.next >= ch.imin {
		return // committed: the header has been consumed, it will drain
	}
	if ch.stall < in.timeout(ch.frame) {
		return
	}
	in.stats.Kills++
	in.ports[i].Kill(ch.frame.WormID())
	if ch.next > 0 { // the head, and with it the record, went out
		in.ports[i].Unstamp(ch.frame.Msg.Dst, ch.frame.WormID())
	}
	ch.phase = chWaiting
	ch.waitStart = now
	ch.retryAt = now + in.backoffGap(now, i, ch.frame.Attempt)
}

// FKilled notifies the injector that a backward FKILL for worm reached
// this source at cycle now (the router has already purged the injection
// channel). The channel backs off and retransmits.
func (in *Injector) FKilled(worm flit.WormID, now int64) {
	for i := range in.chs {
		ch := &in.chs[i]
		if ch.phase == chSending && ch.frame.WormID() == worm {
			in.stats.FKills++
			in.ports[i].Unstamp(ch.frame.Msg.Dst, worm)
			ch.phase = chWaiting
			ch.waitStart = now
			// FKILL means the attempt was rejected by the receiver (or a
			// dead link), not congestion; retry after the base gap.
			ch.retryAt = now + in.backoffGap(now, i, 0)
			return
		}
		if ch.frame.WormID() == worm && ch.phase != chSending {
			in.stats.StaleFKills++
			return
		}
	}
	// The worm completed injection before its FKILL arrived: the FCR
	// padding bound was violated. Counted so tests can assert zero.
	in.stats.LateFKills++
}
