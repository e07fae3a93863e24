package core

import (
	"fmt"
	"slices"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Checkpoint codecs for the node-interface engines. The injector's
// protocol state machines and the receiver's partial worm assemblies are
// the per-node state a resumed run needs to continue byte-identically.
// (The retransmission jitter is a keyed draw, so it carries no state.)

// maxSnapshotItems bounds decoded collection sizes so a corrupt length
// field cannot drive a huge allocation before validation fails.
const maxSnapshotItems = 1 << 24

// SaveState appends the injector's mutable state to a snapshot: every
// channel's protocol engine, the pending message queue (the consumed
// prefix is dropped — only queue[qhead:] is live), the counters and the
// failure log. A channel's frame is written as its message and attempt:
// the pad length and the commit threshold are buildFrame's function of
// the two and the configuration, and LoadState rebuilds them. Idle
// channels keep both, because FKilled reads an idle channel's worm id
// to count a stale FKILL.
func (in *Injector) SaveState(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(in.chs)))
	for i := range in.chs {
		ch := &in.chs[i]
		e.Int(int(ch.phase))
		flit.PutMessage(e, ch.frame.Msg)
		e.Int(ch.frame.Attempt)
		e.Int(ch.next)
		e.Int(ch.stall)
		e.Varint(ch.retryAt)
		e.Varint(ch.firstInject)
		e.Varint(ch.backoff)
		e.Varint(ch.waitStart)
	}
	pending := in.queue[in.qhead:]
	e.Uvarint(uint64(len(pending)))
	for _, m := range pending {
		flit.PutMessage(e, m)
	}
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
// the same channel count. Every channel and queued message is
// range-checked (loadFrame, checkMessage), so a corrupt payload is an
// error here rather than a panic or a stuck channel in the next Tick. On
// error the injector is unusable; the network discards it with the rest
// of a failed restore.
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
		msg, attempt := flit.GetMessage(d), d.Int()
		ch.next = d.Int()
		ch.stall = d.Int()
		ch.retryAt = d.Varint()
		ch.firstInject = d.Varint()
		ch.backoff = d.Varint()
		ch.waitStart = d.Varint()
		if err := d.Err(); err != nil {
			return err
		}
		if err := in.loadFrame(ch, msg, attempt); err != nil {
			return fmt.Errorf("core: injection channel %d: %w", i, err)
		}
	}
	nq := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	queue := slices.Grow(in.queue[:0], nq)
	for i := 0; i < nq; i++ {
		m := flit.GetMessage(d)
		if err := d.Err(); err != nil {
			return err
		}
		if err := in.checkMessage(m); err != nil {
			return fmt.Errorf("core: queued message %d: %w", i, err)
		}
		queue = append(queue, m)
	}
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
	failures := slices.Grow(in.failures[:0], nf)
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
	in.stats = s
	in.failures = failures
	return nil
}

// loadFrame rebuilds channel ch's frame and commit threshold from its
// message and attempt, rejecting channel state no run produces: a phase
// outside the three, an attempt a worm id cannot carry, a message the
// injector could not have framed (unless the channel is idle and never
// framed one, when it holds the zero frame), or a next flit outside the
// worm (at its end only once fully injected, which leaves the channel
// idle). Each would otherwise panic in FlitAt or buildFrame, hold the
// channel busy forever, or run on with an attempt count no worm id can
// name.
func (in *Injector) loadFrame(ch *chState, msg flit.Message, attempt int) error {
	switch {
	case ch.phase < chIdle || ch.phase > chWaiting:
		return fmt.Errorf("phase %d", ch.phase)
	case attempt < 0 || attempt >= flit.MaxAttempts:
		return fmt.Errorf("attempt %d outside [0,%d)", attempt, flit.MaxAttempts)
	}
	if ch.phase == chIdle && msg == (flit.Message{}) {
		ch.frame, ch.imin = flit.Frame{Attempt: attempt}, 0
	} else {
		if err := in.checkMessage(msg); err != nil {
			return err
		}
		ch.frame, ch.imin = in.buildFrame(msg, attempt)
	}
	if total := ch.frame.TotalLen(); ch.next < 0 || ch.next > total || ch.phase == chSending && ch.next == total {
		return fmt.Errorf("next flit %d outside a worm of %d flits in phase %d", ch.next, total, ch.phase)
	}
	return nil
}

// checkMessage rejects a message the injector could not frame: one
// Submit would refuse, or one whose head flit cannot encode it.
func (in *Injector) checkMessage(m flit.Message) error {
	if err := m.Validate(in.topo.Nodes()); err != nil {
		return err
	}
	_, err := flit.EncodeHeader(flit.Header{Src: m.Src, Dst: m.Dst, DataLen: m.DataLen})
	return err
}

// SaveState appends the receiver's mutable state to a snapshot: the
// in-progress worm assemblies, the per-source FIFO watermarks and the
// counters. The per-cycle delivery buffers are not serialized — the
// network drains them inside every Step, so they are empty at any
// cycle boundary a checkpoint can observe. The stamp records are saved
// apart (SaveStamps): a receiver holds them only while heads are on
// their way to it, so most hold none at a checkpoint, and the network
// writes only those that do.
func (rc *Receiver) SaveState(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(rc.asm)))
	for i := range rc.asm {
		a := &rc.asm[i]
		e.U64(uint64(a.worm))
		e.Varint(int64(a.src))
		e.Int(a.dataLen)
		e.Int(a.nextSeq)
		e.Bool(a.dataOK)
		flit.PutStamps(e, a.stamps)
		e.Varint(a.headArrived)
	}
	e.Uvarint(uint64(len(rc.lastSeen)))
	for _, m := range rc.lastSeen {
		e.Varint(int64(m.src))
		e.U64(uint64(m.msg))
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
// and watermarks are replaced, and stamp records dropped (LoadStamps
// restores them). Worms and sources must ascend strictly, as SaveState
// writes them: a duplicate would otherwise restore two records for one
// key, and the lookups assume sorted order. On error the receiver is
// unusable; the network discards it with the rest of a failed restore.
func (rc *Receiver) LoadState(d *snapshot.Decoder) error {
	na := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	rc.asm = slices.Grow(rc.asm[:0], na)
	for i := 0; i < na; i++ {
		a := assembly{
			worm:        flit.WormID(d.U64()),
			src:         topology.NodeID(d.Varint()),
			dataLen:     d.Int(),
			nextSeq:     d.Int(),
			dataOK:      d.Bool(),
			stamps:      flit.GetStamps(d),
			headArrived: d.Varint(),
		}
		if err := d.Err(); err != nil {
			return err
		}
		if i > 0 && a.worm <= rc.asm[i-1].worm {
			return fmt.Errorf("core: snapshot assembly of worm %d does not ascend from worm %d", a.worm, rc.asm[i-1].worm)
		}
		rc.asm = append(rc.asm, a)
	}
	ns := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	rc.lastSeen = slices.Grow(rc.lastSeen[:0], ns)
	for i := 0; i < ns; i++ {
		m := watermark{src: topology.NodeID(d.Varint()), msg: flit.MessageID(d.U64())}
		if err := d.Err(); err != nil {
			return err
		}
		if i > 0 && m.src <= rc.lastSeen[i-1].src {
			return fmt.Errorf("core: snapshot watermark of source %d does not ascend from source %d", m.src, rc.lastSeen[i-1].src)
		}
		rc.lastSeen = append(rc.lastSeen, m)
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
	rc.deliveries = rc.deliveries[:0]
	rc.drained = rc.drained[:0]
	rc.stamps = rc.stamps[:0]
	rc.stats = s
	return nil
}

// SaveStamps appends the receiver's stamp records to a snapshot, as
// they lie: their count, then each record's worm as its distance from
// the previous record's (they ascend), its source and its stamps
// (flit.PutStamps).
func (rc *Receiver) SaveStamps(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(rc.stamps)))
	prev := flit.WormID(0)
	for i := range rc.stamps {
		r := &rc.stamps[i]
		e.Uvarint(uint64(r.worm - prev))
		e.Varint(int64(r.src))
		flit.PutStamps(e, r.stamps)
		prev = r.worm
	}
}

// LoadStamps replaces the receiver's stamp records with those written by
// SaveStamps. They must ascend by (worm, source), as SaveStamps writes
// them; equal keys are legal (a source reusing an id).
func (rc *Receiver) LoadStamps(d *snapshot.Decoder) error {
	n := d.Count(maxSnapshotItems)
	if err := d.Err(); err != nil {
		return err
	}
	rc.stamps = slices.Grow(rc.stamps[:0], n)
	prev := stampRec{}
	for i := 0; i < n; i++ {
		r := stampRec{worm: prev.worm + flit.WormID(d.Uvarint()), src: topology.NodeID(d.Varint()), stamps: flit.GetStamps(d)}
		if err := d.Err(); err != nil {
			return err
		}
		if i > 0 && (r.worm < prev.worm || r.worm == prev.worm && r.src < prev.src) {
			return fmt.Errorf("core: snapshot stamp record of worm %d from %d does not follow worm %d from %d", r.worm, r.src, prev.worm, prev.src)
		}
		rc.stamps = append(rc.stamps, r)
		prev = r
	}
	return nil
}
