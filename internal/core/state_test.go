package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// mapReceiver is a reference receiver that keeps its assemblies,
// watermarks and stamp records in maps and sorts the keys only when it
// saves — the straightforward shape the sorted-slice Receiver must be
// indistinguishable from, in deliveries, counters and checkpoint bytes.
type mapReceiver struct {
	fcr      bool
	asm      map[flit.WormID]assembly
	lastSeen map[topology.NodeID]flit.MessageID
	stamps   map[stampKey][]flit.Stamps // per key, in the order made
	stats    RecvStats
	out      []Delivery
}

type stampKey struct {
	worm flit.WormID
	src  topology.NodeID
}

func (m *mapReceiver) stamp(worm flit.WormID, src topology.NodeID, s flit.Stamps) {
	k := stampKey{worm, src}
	m.stamps[k] = append(m.stamps[k], s)
}

func (m *mapReceiver) unstamp(worm flit.WormID, src topology.NodeID) {
	k := stampKey{worm, src}
	if q := m.stamps[k]; len(q) > 1 {
		m.stamps[k] = q[1:]
	} else {
		delete(m.stamps, k)
	}
}

// take removes the record the head of worm takes on arrival with header
// source src: src's first; failing that, if the header is corrupt, the
// first made by the lowest-numbered source with one; else none.
func (m *mapReceiver) take(worm flit.WormID, src topology.NodeID, corrupt bool) flit.Stamps {
	best, found := stampKey{worm, src}, len(m.stamps[stampKey{worm, src}]) > 0
	if !found && corrupt {
		for k := range m.stamps {
			if k.worm == worm && (!found || k.src < best.src) {
				best, found = k, true
			}
		}
	}
	if !found {
		return flit.Stamps{}
	}
	s := m.stamps[best][0]
	m.unstamp(best.worm, best.src)
	return s
}

func (m *mapReceiver) accept(f flit.Flit, now int64) {
	a := m.asm[f.Worm]
	switch {
	case m.fcr && f.Kind != flit.Pad && !f.Verify():
		if f.Kind == flit.Data {
			m.stats.DataFlits++
		} else { // a rejected head gives up the record it would take
			m.take(f.Worm, flit.DecodeHeader(f.Payload).Src, true)
		}
		m.stats.FKillsSent++
		delete(m.asm, f.Worm)
		return
	case f.Kind == flit.Head:
		h := flit.DecodeHeader(f.Payload)
		a = assembly{worm: f.Worm, src: h.Src, dataLen: h.DataLen, dataOK: true,
			stamps: m.take(f.Worm, h.Src, !f.Verify()), headArrived: now}
		m.stats.DataFlits++
	case f.Kind == flit.Data:
		m.stats.DataFlits++
		a.dataOK = a.dataOK && f.Payload == flit.PayloadWord(a.worm.Message(), int(f.Seq))
	default:
		m.stats.PadFlits++
	}
	a.nextSeq = int(f.Seq) + 1
	if !f.Tail {
		m.asm[f.Worm] = a
		return
	}
	delete(m.asm, f.Worm)
	m.stats.Delivered++
	if !a.dataOK {
		m.stats.CorruptData++
	}
	msg := a.worm.Message()
	if last, ok := m.lastSeen[a.src]; ok && msg < last {
		m.stats.OrderErrors++
	}
	m.lastSeen[a.src] = msg
	m.out = append(m.out, Delivery{Msg: msg, Worm: a.worm, Src: a.src, DataLen: a.dataLen, Time: now,
		DataOK: a.dataOK, Stamps: a.stamps, HeadArrived: a.headArrived})
}

func (m *mapReceiver) discard(worm flit.WormID) {
	if _, ok := m.asm[worm]; ok {
		delete(m.asm, worm)
		m.stats.KilledPartial++
	}
}

// save writes the receiver payload and then its stamp records from the
// maps, keys sorted.
func (m *mapReceiver) save() []byte {
	var e snapshot.Encoder
	var worms []flit.WormID
	for w := range m.asm {
		worms = append(worms, w)
	}
	slices.Sort(worms)
	e.Uvarint(uint64(len(worms)))
	for _, w := range worms {
		a := m.asm[w]
		e.U64(uint64(w))
		e.Varint(int64(a.src))
		e.Int(a.dataLen)
		e.Int(a.nextSeq)
		e.Bool(a.dataOK)
		flit.PutStamps(&e, a.stamps)
		e.Varint(a.headArrived)
	}
	var srcs []topology.NodeID
	for src := range m.lastSeen {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	e.Uvarint(uint64(len(srcs)))
	for _, src := range srcs {
		e.Varint(int64(src))
		e.U64(uint64(m.lastSeen[src]))
	}
	s := m.stats
	for _, v := range []int64{s.Delivered, s.CorruptData, s.FKillsSent, s.KilledPartial, s.DataFlits, s.PadFlits, s.OrderErrors} {
		e.Varint(v)
	}
	var keys []stampKey
	records := 0
	for k, q := range m.stamps {
		keys = append(keys, k)
		records += len(q)
	}
	slices.SortFunc(keys, func(a, b stampKey) int {
		if a.worm != b.worm {
			return cmp.Compare(a.worm, b.worm)
		}
		return cmp.Compare(a.src, b.src)
	})
	e.Uvarint(uint64(records))
	prev := flit.WormID(0)
	for _, k := range keys {
		for _, st := range m.stamps[k] {
			e.Uvarint(uint64(k.worm - prev))
			e.Varint(int64(k.src))
			flit.PutStamps(&e, st)
			prev = k.worm
		}
	}
	return e.Bytes()
}

// TestReceiverMatchesMapModel drives a random script through a Receiver
// and the map-keyed reference: worms from several sources interleaved
// across several ejection channels, forward-kill discards, corrupt
// flits (FCR rejects them, CR flags the data) and message ids that
// sometimes run backwards per source. Each worm's source makes a stamp
// record before its head, which takes it on arrival, and withdraws it
// when the worm is torn down. Now and then a head is lost on the way
// and its record withdrawn, by its source or, once the source is done,
// where the head is dropped (Lose), as is a head FCR rejects; now and
// then a second source makes a record of the same worm, as a caller
// reusing ids does; now and then a source withdraws its record while
// its head is on the way, which arrives —
// often beside another source's record of the same worm, which it must
// not take — and is discarded by the forward kill. After every flit the
// deliveries and the SaveState bytes must agree, and every so often the
// receiver is replaced by a fresh one restored from its own checkpoint.
func TestReceiverMatchesMapModel(t *testing.T) {
	for _, proto := range []Protocol{CR, FCR} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := crConfig()
			cfg.Protocol = proto
			fk := &fakeFKiller{}
			r := rng.New(0x7ecf)
			rc := NewReceiver(cfg, 5, fk)
			m := &mapReceiver{fcr: proto == FCR, asm: map[flit.WormID]assembly{}, lastSeen: map[topology.NodeID]flit.MessageID{},
				stamps: map[stampKey][]flit.Stamps{}}
			unstamp := func(fr flit.Frame, src topology.NodeID) {
				rc.Unstamp(fr.WormID(), src)
				m.unstamp(fr.WormID(), src)
			}
			stamp := func(fr flit.Frame, src topology.NodeID, now int64) {
				s := flit.Stamps{Create: now - int64(r.Intn(100)), FirstInject: now - 3, AttemptInject: now - 2, Backoff: int64(r.Intn(2))}
				rc.Stamp(fr.WormID(), src, s)
				m.stamp(fr.WormID(), src, s)
			}
			const channels, sources = 3, 40
			type stream struct {
				fr    flit.Frame
				next  int  // next flit to send; 0 means the channel is idle
				dying bool // withdrawn by its source; a forward kill follows the head
			}
			var chs [channels]stream
			var nextMsg flit.MessageID = 1000
			twins := 0      // records made beside another source's of the same worm
			dyingTwins := 0 // withdrawn heads sent while another source's record of their worm waits
			for step := int64(0); step < 30000; step++ {
				ch := r.Intn(channels)
				c := &chs[ch]
				if c.next == 0 {
					// Start a worm, unless its id is live on another channel.
					msg := nextMsg
					if r.Intn(6) == 0 {
						msg -= flit.MessageID(1 + r.Intn(200)) // an older message overtaken in flight
					} else {
						nextMsg++
					}
					fr := flit.Frame{
						Msg:     flit.Message{ID: msg, Src: topology.NodeID(r.Intn(sources)), Dst: 5, DataLen: 1 + r.Intn(4)},
						Attempt: r.Intn(3),
						PadLen:  r.Intn(3),
					}
					if _, live := m.asm[fr.WormID()]; live {
						continue
					}
					stamp(fr, fr.Msg.Src, step)
					if r.Intn(100) == 0 {
						stamp(fr, (fr.Msg.Src+1)%sources, step)
						twins++
					}
					if r.Intn(20) == 0 { // the head is lost on the way
						if r.Intn(5) != 0 {
							unstamp(fr, fr.Msg.Src) // by its source, still sending it
						} else { // where the network drops it, its source done
							head := fr.FlitAt(0)
							rc.Lose(&head)
							m.take(fr.WormID(), fr.Msg.Src, false)
						}
						continue
					}
					c.fr, c.dying = fr, r.Intn(30) == 0
					if c.dying {
						if r.Intn(2) == 0 {
							stamp(fr, (fr.Msg.Src+1)%sources, step)
							twins++
							dyingTwins++
						}
						unstamp(fr, fr.Msg.Src)
					}
				} else if r.Intn(25) == 0 {
					unstamp(c.fr, c.fr.Msg.Src)
					rc.Discard(c.fr.WormID())
					m.discard(c.fr.WormID())
					c.next = 0
					continue
				}
				f := c.fr.FlitAt(c.next)
				if r.Intn(20) == 0 {
					f.Payload ^= 1 << r.Intn(64)
				}
				kills := len(fk.calls)
				rc.Accept(ch, &f, step)
				m.accept(f, step)
				c.next++
				if len(fk.calls) > kills {
					unstamp(c.fr, c.fr.Msg.Src)
				}
				if f.Tail || len(fk.calls) > kills {
					c.next = 0
				} else if c.dying {
					rc.Discard(c.fr.WormID())
					m.discard(c.fr.WormID())
					c.next = 0
				}
				if got := rc.Drain(); !slices.Equal(got, m.out) {
					t.Fatalf("step %d: deliveries %+v, reference %+v", step, got, m.out)
				}
				m.out = m.out[:0]
				var e snapshot.Encoder
				rc.SaveState(&e)
				rc.SaveStamps(&e)
				raw := e.Bytes()
				if want := m.save(); !bytes.Equal(raw, want) {
					t.Fatalf("step %d: SaveState and SaveStamps bytes differ from the reference's\n got %x\nwant %x", step, raw, want)
				}
				if step%97 == 0 {
					rc = NewReceiver(cfg, 5, fk)
					d := snapshot.NewDecoder(raw)
					if err := rc.LoadState(d); err != nil {
						t.Fatalf("step %d: restoring the receiver's own checkpoint: %v", step, err)
					}
					if err := rc.LoadStamps(d); err != nil {
						t.Fatalf("step %d: restoring the receiver's own stamp records: %v", step, err)
					}
				}
			}
			s := rc.Stats()
			if s != m.stats {
				t.Fatalf("stats %+v, reference %+v", s, m.stats)
			}
			// The script must have reached every path it claims to cover.
			if s.OrderErrors == 0 || s.KilledPartial == 0 || s.Delivered == 0 ||
				(proto == FCR && s.FKillsSent == 0) || (proto == CR && s.CorruptData == 0) {
				t.Fatalf("script left a path untested: %+v", s)
			}
			if rc.StampRecords() == 0 || twins == 0 || dyingTwins == 0 {
				t.Fatalf("script left %d records behind, made %d beside another source's of the same worm, %d of them beside a withdrawn head; want all > 0",
					rc.StampRecords(), twins, dyingTwins)
			}
		})
	}
}

// TestReceiverLoadRejectsCorruptState: assemblies and watermarks must
// ascend strictly, as SaveState writes them, and stamp records ascend by
// (worm, source), as SaveStamps writes them. A duplicate or descending key would otherwise restore
// silently — with the last record winning, or out of the order every
// lookup relies on.
func TestReceiverLoadRejectsCorruptState(t *testing.T) {
	payload := func(worms []flit.WormID, srcs []topology.NodeID, stamped ...stampKey) []byte {
		var e snapshot.Encoder
		e.Uvarint(uint64(len(worms)))
		for _, w := range worms {
			e.U64(uint64(w))
			e.Varint(1)  // src
			e.Int(2)     // dataLen
			e.Int(1)     // nextSeq
			e.Bool(true) // dataOK
			flit.PutStamps(&e, flit.Stamps{})
			e.Varint(0) // headArrived
		}
		e.Uvarint(uint64(len(srcs)))
		for i, src := range srcs {
			e.Varint(int64(src))
			e.U64(uint64(10 + i))
		}
		for i := 0; i < 7; i++ {
			e.Varint(0) // counters
		}
		e.Uvarint(uint64(len(stamped))) // the stamp records (SaveStamps)
		prev := flit.WormID(0)
		for _, k := range stamped {
			e.Uvarint(uint64(k.worm - prev)) // wraps for a descending worm
			e.Varint(int64(k.src))
			flit.PutStamps(&e, flit.Stamps{})
			prev = k.worm
		}
		return e.Bytes()
	}
	load := func(payload []byte) error {
		rc, d := NewReceiver(crConfig(), 5, nil), snapshot.NewDecoder(payload)
		if err := rc.LoadState(d); err != nil {
			return err
		}
		return rc.LoadStamps(d)
	}
	w1, w2 := flit.MakeWormID(7, 0), flit.MakeWormID(9, 1)
	// Equal keys are a source that reused a message id.
	ok := payload([]flit.WormID{w1, w2}, []topology.NodeID{1, 3}, stampKey{w1, 2}, stampKey{w1, 2}, stampKey{w1, 4}, stampKey{w2, 0})
	if err := load(ok); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	cases := []struct {
		name    string
		worms   []flit.WormID
		srcs    []topology.NodeID
		stamped []stampKey
		want    string
	}{
		{"duplicate-worm", []flit.WormID{w1, w1}, nil, nil, "assembly of worm"},
		{"descending-worms", []flit.WormID{w2, w1}, nil, nil, "assembly of worm"},
		{"duplicate-source", nil, []topology.NodeID{4, 4}, nil, "watermark of source"},
		{"descending-sources", nil, []topology.NodeID{1, 6, 2}, nil, "watermark of source"},
		{"descending-stamp-sources", nil, nil, []stampKey{{w1, 3}, {w1, 2}}, "stamp record"},
		{"descending-stamp-worms", nil, nil, []stampKey{{w2, 0}, {w1, 0}}, "stamp record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := load(payload(tc.worms, tc.srcs, tc.stamped...)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState, LoadStamps = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestInjectorLoadRejectsCorruptState: a channel's phase, next flit and
// attempt must be ones a run can produce. Each row was accepted before
// the range checks: the first two panicked in flit.FlitAt on the next
// Tick, an unknown phase left the channel busy forever (so it was never
// pruned from the active set), and an attempt past what a worm id holds
// ran on silently.
func TestInjectorLoadRejectsCorruptState(t *testing.T) {
	sending := func(t *testing.T) *Injector {
		inj, _ := newInj(t, crConfig())
		inj.Submit(msgTo(3, 4))
		inj.Tick(0)
		if inj.chs[0].phase != chSending || inj.chs[0].next != 1 {
			t.Fatalf("fixture channel is in phase %d at flit %d, want sending at flit 1", inj.chs[0].phase, inj.chs[0].next)
		}
		return inj
	}
	load := func(t *testing.T, in *Injector) error {
		var e snapshot.Encoder
		in.SaveState(&e)
		fresh, _ := newInj(t, crConfig())
		return fresh.LoadState(snapshot.NewDecoder(e.Bytes()))
	}
	if err := load(t, sending(t)); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(ch *chState)
		want   string
	}{
		{"next-past-worm", func(ch *chState) { ch.next = 1000 }, "next flit"},
		{"next-negative", func(ch *chState) { ch.next = -3 }, "next flit"},
		{"phase-unknown", func(ch *chState) { ch.phase = 9 }, "phase 9"},
		{"attempt-past-worm-id", func(ch *chState) { ch.frame.Attempt = 100000 }, "attempt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := sending(t)
			tc.mutate(&in.chs[0])
			if err := load(t, in); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestJitterUniform: a retransmission gap is the policy gap g plus a
// keyed extension uniform on [0, g], so gaps are uniform on [g, 2g]
// (chi-square over the g+1 = 9 values, 8 degrees of freedom, below the
// 0.001 critical value of 26.1), and one channel's draws do not move
// with another's.
func TestJitterUniform(t *testing.T) {
	cfg := crConfig() // static gap 8
	inj, _ := newInj(t, cfg, &fakePort{}, &fakePort{})
	const g, trials = 8, 90000
	var counts [g + 1]int
	same := 0
	for now := int64(0); now < trials; now++ {
		gap := inj.backoffGap(now, 0, 0)
		if gap < g || gap > 2*g {
			t.Fatalf("gap %d at cycle %d outside [%d,%d]", gap, now, g, 2*g)
		}
		counts[gap-g]++
		if inj.backoffGap(now, 1, 0) == gap {
			same++
		}
	}
	want := float64(trials) / (g + 1)
	chi := 0.0
	for _, c := range counts {
		chi += (float64(c) - want) * (float64(c) - want) / want
	}
	if chi > 26.1 {
		t.Fatalf("gaps not uniform on [%d,%d]: chi-square %.1f, counts %v", g, 2*g, chi, counts)
	}
	// Independent channels agree one time in g+1.
	if share := float64(same) / trials; math.Abs(share-1.0/(g+1)) > 0.01 {
		t.Fatalf("channels 0 and 1 drew the same gap %.3f of the time, want %.3f", share, 1.0/(g+1))
	}
}

// TestStampRecordBytes pins the byte budget of the stamp table: a
// record is its worm, its source and four stamps, 48 bytes.
func TestStampRecordBytes(t *testing.T) {
	if size := unsafe.Sizeof(stampRec{}); size != 48 {
		t.Fatalf("a stamp record is %d bytes, want 48", size)
	}
}

// TestReceiverSaveStateAllocs: a checkpoint walks the receiver's
// collections where they lie, so a save into an encoder with room to
// spare allocates nothing. The encoder is pre-grown by a thousand saves;
// the hundred measured ones then need at most one more growth step of
// their own, which the per-run average rounds away, while anything
// SaveState allocated per call would not.
func TestReceiverSaveStateAllocs(t *testing.T) {
	rc := NewReceiver(crConfig(), 5, nil)
	for src := topology.NodeID(0); src < 50; src++ {
		feedWorm(rc, flit.Frame{Msg: flit.Message{ID: flit.MessageID(100 + src), Src: src, Dst: 5, DataLen: 2}}, 0, 0)
	}
	accept(rc, 0, flit.Frame{Msg: flit.Message{ID: 300, Src: 1, Dst: 5, DataLen: 4}}.FlitAt(0), 1)
	accept(rc, 1, flit.Frame{Msg: flit.Message{ID: 301, Src: 2, Dst: 5, DataLen: 4}}.FlitAt(0), 1)
	if len(rc.asm) != 2 || len(rc.lastSeen) != 50 {
		t.Fatalf("fixture holds %d assemblies and %d watermarks, want 2 and 50", len(rc.asm), len(rc.lastSeen))
	}
	var e snapshot.Encoder
	for i := 0; i < 1000; i++ {
		rc.SaveState(&e)
	}
	if avg := testing.AllocsPerRun(100, func() { rc.SaveState(&e) }); avg != 0 {
		t.Fatalf("Receiver.SaveState allocates %.2f times per save, want 0", avg)
	}
}
