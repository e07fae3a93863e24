package core

import (
	"fmt"
	"sort"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Checkpoint codecs for the node-interface engines. The injector's
// protocol state machines (including the jitter RNG position — the
// retransmission stream must continue, not restart) and the receiver's
// partial worm assemblies are the per-node state a resumed run needs to
// continue byte-identically.

// maxSnapshotItems bounds decoded collection sizes so a corrupt length
// field cannot drive a huge allocation before validation fails.
const maxSnapshotItems = 1 << 24

// SaveState appends the injector's mutable state to a snapshot: every
// channel's protocol engine, the pending message queue (the consumed
// prefix is dropped — only queue[qhead:] is live), the jitter RNG
// position, the counters and the failure log.
func (in *Injector) SaveState(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(in.chs)))
	for i := range in.chs {
		ch := &in.chs[i]
		e.Int(int(ch.phase))
		flit.PutFrame(e, ch.frame)
		e.Int(ch.imin)
		e.Int(ch.next)
		e.Int(ch.stall)
		e.Varint(ch.retryAt)
		e.Varint(ch.createTime)
		e.Varint(ch.firstInject)
		e.Varint(ch.backoff)
		e.Varint(ch.waitStart)
	}
	pending := in.queue[in.qhead:]
	e.Uvarint(uint64(len(pending)))
	for _, m := range pending {
		flit.PutMessage(e, m)
	}
	st := in.jitter.State()
	e.U64(st[0])
	e.U64(st[1])
	e.U64(st[2])
	e.U64(st[3])
	s := &in.stats
	e.Varint(s.Submitted)
	e.Varint(s.Completed)
	e.Varint(s.Kills)
	e.Varint(s.FKills)
	e.Varint(s.StaleFKills)
	e.Varint(s.Failed)
	e.Varint(s.Retries)
	e.Varint(s.DataFlits)
	e.Varint(s.PadFlits)
	e.Varint(s.StallCycles)
	e.Varint(s.LateFKills)
	e.Uvarint(uint64(len(in.failures)))
	for _, f := range in.failures {
		e.U64(uint64(f.Msg))
		e.Varint(int64(f.Src))
		e.Varint(int64(f.Dst))
		e.Varint(f.Created)
		e.Varint(f.Cycle)
		e.Int(f.Attempts)
	}
}

// LoadState restores a state written by SaveState into an injector with
// the same channel count.
func (in *Injector) LoadState(d *snapshot.Decoder) error {
	nch := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	if nch != len(in.chs) {
		return fmt.Errorf("core: snapshot has %d injection channels, injector has %d", nch, len(in.chs))
	}
	for i := range in.chs {
		ch := &in.chs[i]
		ch.phase = chPhase(d.Int())
		ch.frame = flit.GetFrame(d)
		ch.imin = d.Int()
		ch.next = d.Int()
		ch.stall = d.Int()
		ch.retryAt = d.Varint()
		ch.createTime = d.Varint()
		ch.firstInject = d.Varint()
		ch.backoff = d.Varint()
		ch.waitStart = d.Varint()
	}
	nq := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	queue := in.queue[:0]
	for i := 0; i < nq; i++ {
		queue = append(queue, flit.GetMessage(d))
	}
	var st [4]uint64
	st[0], st[1], st[2], st[3] = d.U64(), d.U64(), d.U64(), d.U64()
	s := InjStats{
		Submitted:   d.Varint(),
		Completed:   d.Varint(),
		Kills:       d.Varint(),
		FKills:      d.Varint(),
		StaleFKills: d.Varint(),
		Failed:      d.Varint(),
		Retries:     d.Varint(),
		DataFlits:   d.Varint(),
		PadFlits:    d.Varint(),
		StallCycles: d.Varint(),
		LateFKills:  d.Varint(),
	}
	nf := d.Count(maxFailureRecords)
	if err := d.Err(); err != nil {
		return err
	}
	failures := in.failures[:0]
	for i := 0; i < nf; i++ {
		failures = append(failures, Failure{
			Msg:      flit.MessageID(d.U64()),
			Src:      topology.NodeID(d.Varint()),
			Dst:      topology.NodeID(d.Varint()),
			Created:  d.Varint(),
			Cycle:    d.Varint(),
			Attempts: d.Int(),
		})
	}
	if err := d.Err(); err != nil {
		return err
	}
	in.queue = queue
	in.qhead = 0
	in.jitter.SetState(st)
	in.stats = s
	in.failures = failures
	return nil
}

// SaveState appends the receiver's mutable state to a snapshot: the
// in-progress worm assemblies, the per-source FIFO watermarks and the
// counters. The per-cycle delivery buffers are not serialized — the
// network drains them inside every Step, so they are empty at any
// cycle boundary a checkpoint can observe.
func (rc *Receiver) SaveState(e *snapshot.Encoder) {
	worms := make([]flit.WormID, 0, len(rc.asm))
	// Sorted before encoding, so map iteration order cannot leak into
	// checkpoint bytes.
	//cr:orderinvariant keys are collected and sorted before use
	for w := range rc.asm {
		worms = append(worms, w)
	}
	sort.Slice(worms, func(i, j int) bool { return worms[i] < worms[j] })
	e.Uvarint(uint64(len(worms)))
	for _, w := range worms {
		a := rc.asm[w]
		e.U64(uint64(w))
		e.Varint(int64(a.src))
		e.U64(uint64(a.msg))
		e.Int(a.dataLen)
		e.Int(a.nextSeq)
		e.Bool(a.dataOK)
		flit.PutStamps(e, a.stamps)
		e.Varint(a.headArrived)
	}
	srcs := make([]topology.NodeID, 0, len(rc.lastSeen))
	//cr:orderinvariant keys are collected and sorted before use
	for src := range rc.lastSeen {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	e.Uvarint(uint64(len(srcs)))
	for _, src := range srcs {
		e.Varint(int64(src))
		e.U64(uint64(rc.lastSeen[src]))
	}
	s := &rc.stats
	e.Varint(s.Delivered)
	e.Varint(s.CorruptData)
	e.Varint(s.FKillsSent)
	e.Varint(s.KilledPartial)
	e.Varint(s.DataFlits)
	e.Varint(s.PadFlits)
	e.Varint(s.OrderErrors)
}

// LoadState restores a state written by SaveState. Existing assemblies
// and watermarks are replaced.
func (rc *Receiver) LoadState(d *snapshot.Decoder) error {
	na := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	type loaded struct {
		worm flit.WormID
		asm  assembly
	}
	asms := make([]loaded, na)
	for i := range asms {
		asms[i].worm = flit.WormID(d.U64())
		a := &asms[i].asm
		a.src = topology.NodeID(d.Varint())
		a.msg = flit.MessageID(d.U64())
		a.dataLen = d.Int()
		a.nextSeq = d.Int()
		a.dataOK = d.Bool()
		a.stamps = flit.GetStamps(d)
		a.headArrived = d.Varint()
	}
	ns := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	type watermark struct {
		src topology.NodeID
		msg flit.MessageID
	}
	marks := make([]watermark, ns)
	for i := range marks {
		marks[i].src = topology.NodeID(d.Varint())
		marks[i].msg = flit.MessageID(d.U64())
	}
	s := RecvStats{
		Delivered:     d.Varint(),
		CorruptData:   d.Varint(),
		FKillsSent:    d.Varint(),
		KilledPartial: d.Varint(),
		DataFlits:     d.Varint(),
		PadFlits:      d.Varint(),
		OrderErrors:   d.Varint(),
	}
	if err := d.Err(); err != nil {
		return err
	}
	// Pool pointer identity is unobservable; see Reset.
	//cr:orderinvariant only pool pointer order varies; records are zeroed on reuse
	for w, a := range rc.asm {
		rc.putAsm(a)
		delete(rc.asm, w)
	}
	for i := range asms {
		a := rc.getAsm()
		*a = asms[i].asm
		rc.asm[asms[i].worm] = a
	}
	clear(rc.lastSeen)
	for _, m := range marks {
		rc.lastSeen[m.src] = m.msg
	}
	rc.deliveries = rc.deliveries[:0]
	rc.drained = rc.drained[:0]
	rc.stats = s
	return nil
}
