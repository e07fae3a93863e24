package core

import (
	"cmp"
	"fmt"
	"slices"

	"crnet/internal/flit"
	"crnet/internal/topology"
)

// FKiller lets the receiver tear a worm down backward from one of its
// node's ejection channels; the network wires it to the local router.
type FKiller interface {
	FKill(channel int, worm flit.WormID)
}

// Delivery is one message handed to the local node by the receiver.
type Delivery struct {
	Msg     flit.MessageID
	Worm    flit.WormID
	Src     topology.NodeID
	DataLen int
	Time    int64
	// DataOK reports whether every data payload matched the expected
	// deterministic pattern end to end. Under FCR it is always true for
	// delivered messages (corrupt worms are FKILLed); under Plain/CR
	// with fault injection it exposes silent data corruption.
	DataOK bool

	// Stamps are the source-side phase timestamps of the delivered
	// attempt, taken from its stamp record when its head arrived (see
	// Receiver.Stamp); HeadArrived is the cycle that head reached this
	// receiver. Together with Time (tail drained) they decompose
	// end-to-end latency into queue/retry/flight/drain phases (see
	// internal/obs.PhaseBreakdown).
	Stamps      flit.Stamps
	HeadArrived int64
}

// RecvStats counts receiver-side events.
type RecvStats struct {
	Delivered     int64 // messages delivered to the node
	CorruptData   int64 // delivered messages with payload mismatches (non-FCR)
	FKillsSent    int64 // backward tear-downs requested on corruption
	KilledPartial int64 // partial worms discarded by forward kills
	DataFlits     int64 // head+data flits received
	PadFlits      int64 // padding flits received and stripped
	OrderErrors   int64 // per source FIFO violations observed
}

// assembly is the in-progress reception state of one worm. Its message
// is the worm's (WormID.Message).
type assembly struct {
	worm    flit.WormID
	src     topology.NodeID
	dataLen int
	nextSeq int
	dataOK  bool

	stamps      flit.Stamps // taken from the worm's stamp record
	headArrived int64       // cycle the head reached this receiver
}

// stampRec is the phase-timestamp record of one attempt bound for this
// node whose head has not arrived, keyed by its worm and the node that
// injected it. A source's own node is known when the record is made and
// withdrawn, so a caller that reuses message ids across sources cannot
// withdraw another source's record.
type stampRec struct {
	worm   flit.WormID
	src    topology.NodeID
	stamps flit.Stamps
}

// watermark is the per-source FIFO watermark: the message id last
// delivered from src.
type watermark struct {
	src topology.NodeID
	msg flit.MessageID
}

// Receiver is one node's reception engine: it assembles worms from the
// ejection channels, strips padding, verifies checksums under FCR and
// delivers completed messages.
//
// Its collections are kept sorted — asm ascending by worm, lastSeen
// ascending by source, stamps ascending by (worm, source) — which is
// the order SaveState and SaveStamps write them in, so a checkpoint
// walks them as they lie. asm holds at most one worm per ejection channel in
// practice; lastSeen one entry per source ever delivered from; stamps
// one record per attempt bound here whose head has been injected but
// has not arrived, and that its source has not withdrawn.
type Receiver struct {
	cfg   Config          //cr:nosnap construction parameters
	node  topology.NodeID //cr:nosnap node identity, fixed at construction
	fkill FKiller         //cr:nosnap port adapter, rewired by the owner after restore

	asm []assembly
	// deliveries accumulates the cycle's completions; drained holds the
	// slice handed out by the previous Drain, reused as the next
	// accumulation buffer (double buffering — no allocation per cycle).
	deliveries []Delivery //cr:nosnap cycle-transient completions, cleared by LoadState; checkpoints sit at drain boundaries
	drained    []Delivery //cr:nosnap spare drain buffer, re-grown on demand
	lastSeen   []watermark
	stamps     []stampRec
	stats      RecvStats
}

// NewReceiver returns a receiver for node. fkill may be nil only for
// Plain and CR configurations (they never send FKILLs).
func NewReceiver(cfg Config, node topology.NodeID, fkill FKiller) *Receiver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Protocol == FCR && fkill == nil {
		panic("core: FCR receiver needs an FKiller")
	}
	return &Receiver{cfg: cfg, node: node, fkill: fkill}
}

// Stats returns a copy of the receiver's counters.
func (rc *Receiver) Stats() RecvStats { return rc.stats }

// Drain returns and clears the deliveries accumulated since the last
// call. The simulation harness drains once per cycle. The returned slice
// is only valid until the call after next: the receiver alternates two
// buffers, so callers must copy anything they keep past one cycle.
func (rc *Receiver) Drain() []Delivery {
	d := rc.deliveries
	rc.deliveries = rc.drained[:0]
	rc.drained = d
	return d
}

// Expecting reports the sequence number the assembly of worm expects
// next, and whether the receiver is assembling worm at all.
func (rc *Receiver) Expecting(worm flit.WormID) (seq int, ok bool) {
	i, ok := slices.BinarySearchFunc(rc.asm, worm, byWorm)
	if !ok {
		return 0, false
	}
	return rc.asm[i].nextSeq, true
}

// Assembling returns the worm of the i-th assembly in ascending worm
// order, and false past the last.
func (rc *Receiver) Assembling(i int) (flit.WormID, bool) {
	if i >= len(rc.asm) {
		return 0, false
	}
	return rc.asm[i].worm, true
}

// byWorm and bySource order asm and lastSeen for slices.BinarySearchFunc.
func byWorm(a assembly, worm flit.WormID) int       { return cmp.Compare(a.worm, worm) }
func bySource(m watermark, src topology.NodeID) int { return cmp.Compare(m.src, src) }

// stampAt returns the index of the first record of (worm, src) in
// stamps, or of the first record after it if there is none. Records of
// the same key (a source reusing a message id while an earlier message
// is outstanding) keep the order they were made in.
func (rc *Receiver) stampAt(worm flit.WormID, src topology.NodeID) (int, bool) {
	return slices.BinarySearchFunc(rc.stamps, stampRec{worm: worm, src: src}, func(r, k stampRec) int {
		if c := cmp.Compare(r.worm, k.worm); c != 0 {
			return c
		}
		return cmp.Compare(r.src, k.src)
	})
}

// minStamps is the record capacity a receiver's first record makes room
// for. Measured on the benchmark workloads (3-second runs, seed 1), the
// most records any receiver held at once was 4 on daemon16, 3 on
// sat64-shard2 and 4 on sparse512; 98 % of sat16's receivers and 75 %
// of sweep8's (whose points past saturation reach 9) stayed within 4.
// So on the first three no receiver regrows its records after the
// first; growing from one record instead regrows at each new
// high-water mark, long after warmup, and TestServiceZeroAlloc, a
// daemon16-shaped service, catches such a growth in its window below a
// capacity of 2.
const minStamps = 4

// Stamp records the phase timestamps of attempt worm, whose head node
// src has just injected toward this receiver. The network hands the
// record over at the barrier that ends the injection phase, so it is
// here before the head can arrive; the head's arrival moves the stamps
// into the worm's assembly, and so into its delivery.
//
// Under CR and FCR the head arrives before the source commits, so an
// attempt torn down before its head arrives is one its source was still
// sending, which withdraws the record (Unstamp). Plain wormhole,
// unpadded, or padding set short (PadAdjust) can lose a worm while its
// source is done and its head still on the way, so a head dropped in the
// network, or rejected here, withdraws its record too (Lose).
func (rc *Receiver) Stamp(worm flit.WormID, src topology.NodeID, s flit.Stamps) {
	if cap(rc.stamps) == 0 {
		rc.stamps = make([]stampRec, 0, minStamps)
	}
	i, _ := rc.stampAt(worm, src)
	for i < len(rc.stamps) && rc.stamps[i].worm == worm && rc.stamps[i].src == src {
		i++
	}
	rc.stamps = slices.Insert(rc.stamps, i, stampRec{worm: worm, src: src, stamps: s})
}

// Unstamp withdraws the record of attempt worm from src, torn down
// while its source was still sending it (see Port.Unstamp). A record
// its head has already taken, or one never made, is not there to
// withdraw, and that is no error.
func (rc *Receiver) Unstamp(worm flit.WormID, src topology.NodeID) {
	if i, ok := rc.stampAt(worm, src); ok {
		rc.stamps = slices.Delete(rc.stamps, i, i+1)
	}
}

// recordOf returns the index of the record that head f, whose header
// names source src, takes: the one from src. A head whose checksum
// fails (every flit is sealed; CR delivers a corrupt header) may name a
// wrong source, so it takes the worm's first record if src has none. A
// sound head with no record from its source is one its source withdrew,
// already torn down — even if another source's record of the same id
// waits here: a forward kill is on its way to discard the assembly,
// which is never delivered, so its stamps are zero.
func (rc *Receiver) recordOf(f *flit.Flit, src topology.NodeID) (int, bool) {
	i, ok := rc.stampAt(f.Worm, src)
	if ok || f.Verify() {
		return i, ok
	}
	i, _ = rc.stampAt(f.Worm, -1)
	return i, i < len(rc.stamps) && rc.stamps[i].worm == f.Worm
}

// takeStamps removes and returns the record of the worm whose head f
// has arrived with header source src (see recordOf).
func (rc *Receiver) takeStamps(f *flit.Flit, src topology.NodeID) flit.Stamps {
	i, ok := rc.recordOf(f, src)
	if !ok {
		return flit.Stamps{}
	}
	s := rc.stamps[i].stamps
	rc.stamps = slices.Delete(rc.stamps, i, i+1)
	return s
}

// Lose withdraws the record that head f, dropped in the network or
// rejected here, would have taken on arrival. The source is read from
// the header, so a reused message id withdraws only its own source's
// record.
func (rc *Receiver) Lose(f *flit.Flit) {
	if i, ok := rc.recordOf(f, flit.DecodeHeader(f.Payload).Src); ok {
		rc.stamps = slices.Delete(rc.stamps, i, i+1)
	}
}

// Awaits returns the source of the record head f, still in the network,
// will take on arrival, if there is one.
func (rc *Receiver) Awaits(f *flit.Flit) (topology.NodeID, bool) {
	i, ok := rc.recordOf(f, flit.DecodeHeader(f.Payload).Src)
	if !ok {
		return 0, false
	}
	return rc.stamps[i].src, true
}

// StampRecord returns the worm and source of the i-th stamp record, and
// false past the last.
func (rc *Receiver) StampRecord(i int) (flit.WormID, topology.NodeID, bool) {
	if i >= len(rc.stamps) {
		return 0, 0, false
	}
	return rc.stamps[i].worm, rc.stamps[i].src, true
}

// StampRecords returns how many stamp records wait for their heads.
func (rc *Receiver) StampRecords() int { return len(rc.stamps) }

// Accept consumes one flit arriving on ejection channel ch at cycle now.
// It reads *f and keeps no reference to it (the network hands it the
// router ring slot the flit just left).
func (rc *Receiver) Accept(ch int, f *flit.Flit, now int64) {
	i, found := slices.BinarySearchFunc(rc.asm, f.Worm, byWorm)
	if f.Kind == flit.Head {
		if found {
			panic(fmt.Sprintf("core: duplicate head for worm %d at node %d", f.Worm, rc.node))
		}
		if rc.cfg.Protocol == FCR && !f.Verify() {
			// Corrupt header that slipped to the destination (possible
			// when corruption happens on the final link).
			rc.Lose(f)
			rc.reject(ch, f.Worm)
			return
		}
		h := flit.DecodeHeader(f.Payload)
		a := assembly{worm: f.Worm, src: h.Src, dataLen: h.DataLen, nextSeq: 1, dataOK: true,
			stamps: rc.takeStamps(f, h.Src), headArrived: now}
		rc.stats.DataFlits++
		if f.Tail {
			rc.deliver(&a, now)
			return
		}
		rc.asm = slices.Insert(rc.asm, i, a)
		return
	}
	if !found {
		// Flits of a worm we already rejected; the router purge races
		// one flit — it is absorbed there, so reaching here means a
		// protocol bug.
		panic(fmt.Sprintf("core: body flit %v without assembly at node %d", *f, rc.node))
	}
	a := &rc.asm[i]
	if int(f.Seq) != a.nextSeq {
		panic(fmt.Sprintf("core: worm %d flit out of order at node %d: seq %d, want %d",
			f.Worm, rc.node, f.Seq, a.nextSeq))
	}
	a.nextSeq++
	switch f.Kind {
	case flit.Data:
		rc.stats.DataFlits++
		if rc.cfg.Protocol == FCR && !f.Verify() {
			rc.drop(i)
			rc.reject(ch, f.Worm)
			return
		}
		if f.Payload != flit.PayloadWord(a.worm.Message(), int(f.Seq)) {
			a.dataOK = false
		}
	case flit.Pad:
		rc.stats.PadFlits++
		// Padding carries no information; corruption on it is ignored
		// (the data was already verified by the time pads arrive).
	}
	if f.Tail {
		rc.deliver(a, now)
		rc.drop(i)
	}
}

// drop forgets asm[i].
func (rc *Receiver) drop(i int) { rc.asm = slices.Delete(rc.asm, i, i+1) }

// reject tears the worm down backward; the caller drops its assembly,
// if it has one.
func (rc *Receiver) reject(ch int, worm flit.WormID) {
	rc.stats.FKillsSent++
	rc.fkill.FKill(ch, worm)
}

func (rc *Receiver) deliver(a *assembly, now int64) {
	msg := a.worm.Message()
	rc.stats.Delivered++
	if !a.dataOK {
		rc.stats.CorruptData++
	}
	if j, seen := slices.BinarySearchFunc(rc.lastSeen, a.src, bySource); !seen {
		rc.lastSeen = slices.Insert(rc.lastSeen, j, watermark{src: a.src, msg: msg})
	} else {
		if msg < rc.lastSeen[j].msg {
			rc.stats.OrderErrors++
		}
		rc.lastSeen[j].msg = msg
	}
	rc.deliveries = append(rc.deliveries, Delivery{
		Msg:         msg,
		Worm:        a.worm,
		Src:         a.src,
		DataLen:     a.dataLen,
		Time:        now,
		DataOK:      a.dataOK,
		Stamps:      a.stamps,
		HeadArrived: a.headArrived,
	})
}

// Discard drops the partial assembly of a worm whose forward KILL
// reached the destination.
func (rc *Receiver) Discard(worm flit.WormID) {
	if i, ok := slices.BinarySearchFunc(rc.asm, worm, byWorm); ok {
		rc.drop(i)
		rc.stats.KilledPartial++
	}
}
