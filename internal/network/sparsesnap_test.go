package network

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Tests for the sparse checkpoint layout: the payload carries what has
// been built and nothing else, a restore builds exactly that, and none
// of it is observable in the run that follows.

func saveBytes(n *Network) []byte {
	var e snapshot.Encoder
	n.SaveState(&e)
	return e.Bytes()
}

func mustLoad(t *testing.T, n *Network, payload []byte) {
	t.Helper()
	d := snapshot.NewDecoder(payload)
	if err := n.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// built counts the constructed routers, injectors and receivers.
func built(n *Network) (routers, injectors, receivers int) {
	for id := 0; id < n.nodes; id++ {
		m := n.presence(id)
		routers += int(m & hasRouter)
		injectors += int(m & hasInjector >> 1)
		receivers += int(m & hasReceiver >> 2)
	}
	return
}

// lazyCfg is an 8x8 FCR torus in which node lazyNode's two links to its
// +x neighbour fail at cycle 40 and stay down until cycle 2000.
// lazySubmit keeps the first lazyQuiet cycles of traffic inside row 0, so
// rows 2..6 are still unbuilt then; afterwards every node talks,
// lazyNode included.
const (
	lazyK     = 8
	lazyNode  = 4*lazyK + 3
	lazyQuiet = 300
)

func lazyCfg(shards int) Config {
	topo := topology.NewTorus(lazyK, 2)
	next, _ := topo.Neighbor(lazyNode, 0)
	back := int(topo.ReversePort(lazyNode, 0))
	return Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: 2e-3,
		Seed:          29,
		Shards:        shards,
		Faults: faults.NewSchedule([]faults.Event{
			{Cycle: 40, Link: faults.LinkID{Node: lazyNode, Port: 0}},
			{Cycle: 40, Link: faults.LinkID{Node: int(next), Port: back}},
			{Cycle: 2000, Link: faults.LinkID{Node: lazyNode, Port: 0}, Up: true},
			{Cycle: 2000, Link: faults.LinkID{Node: int(next), Port: back}, Up: true},
		}),
		Check: true,
	}
}

func lazySubmit(n *Network, cycle int64) {
	if cycle%2 != 0 {
		return
	}
	i := cycle / 2
	src, dst := i%4, (i+1+i/4%3)%4 // both in row 0, columns 0..3
	if cycle >= lazyQuiet {
		nodes := int64(n.nodes)
		src = (i * 7) % nodes
		if i%5 == 0 {
			src = lazyNode
		}
		dst = (src + 1 + (i*11)%(nodes-1)) % nodes
	}
	n.SubmitMessage(flit.Message{
		ID:         flit.MessageID(i + 1),
		Src:        topology.NodeID(src),
		Dst:        topology.NodeID(dst),
		DataLen:    int(6 + cycle%5),
		CreateTime: cycle,
	})
}

// lazyRun steps n under lazySubmit up to cycle `to`, accumulating the
// observable run into snap.
func lazyRun(n *Network, to int64, snap *kernelSnapshot) {
	for n.Cycle() < to {
		lazySubmit(n, n.Cycle())
		n.Step()
		ds := n.DrainDeliveries()
		snap.perCycle = append(snap.perCycle, len(ds))
		snap.deliveries = append(snap.deliveries, ds...)
	}
	snap.cycle = n.Cycle()
	snap.inj = n.InjectorStats()
	snap.recv = n.ReceiverStats()
	snap.flits = n.RouterStats().FlitsMoved
	snap.transient = n.TransientFaults()
	snap.dropped = n.flitsDropped
}

// TestResumeUntouchedThenRestored: a node that nothing had touched when
// the checkpoint was taken, with a failed link the fault timeline took
// down before the save, is first built after the restore — against the
// restored link state — and the run is the unbroken one: same
// deliveries in the same cycles, same counters, same final bytes,
// whatever partition the restoring network uses.
func TestResumeUntouchedThenRestored(t *testing.T) {
	const K, M = lazyQuiet, 1200

	ref := New(lazyCfg(1))
	var want kernelSnapshot
	lazyRun(ref, M, &want)
	wantFinal := saveBytes(ref)
	if ref.routers[lazyNode] == nil || want.inj.Retries == 0 || len(want.deliveries) == 0 {
		t.Fatal("reference run never built the lazy node, retried or delivered; test is vacuous")
	}

	first := New(lazyCfg(1))
	var head kernelSnapshot
	lazyRun(first, K, &head)
	if first.routers[lazyNode] != nil || first.linkAt(lazyNode, 0).up() {
		t.Fatal("at the checkpoint the lazy node is built or its link is still up; test is vacuous")
	}
	ckpt := saveBytes(first)

	for _, shards := range []int{1, 2, 7} {
		resumed := New(lazyCfg(shards))
		mustLoad(t, resumed, ckpt)
		if resumed.routers[lazyNode] != nil {
			t.Fatalf("shards=%d: restore built a node the snapshot does not carry", shards)
		}
		got := kernelSnapshot{
			perCycle:   append([]int(nil), head.perCycle...),
			deliveries: append([]core.Delivery(nil), head.deliveries...),
		}
		lazyRun(resumed, M, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: resumed run diverged: %d deliveries by cycle %d, unbroken %d by %d",
				shards, len(got.deliveries), got.cycle, len(want.deliveries), want.cycle)
		}
		if !bytes.Equal(saveBytes(resumed), wantFinal) {
			t.Errorf("shards=%d: final state differs from the unbroken run's", shards)
		}
	}
}

// TestRestoreIntoDirtyTarget: LoadState leaves the target with the
// snapshot's components and no others — nodes the target had built that
// the snapshot lacks are dropped, links it had dirtied inside a pristine
// run are pristine again — so it re-saves to the snapshot's bytes.
func TestRestoreIntoDirtyTarget(t *testing.T) {
	donor := New(lazyCfg(1))
	var snap kernelSnapshot
	lazyRun(donor, lazyQuiet, &snap)
	ckpt := saveBytes(donor)

	target := New(lazyCfg(2))
	lazyRun(target, 900, &kernelSnapshot{})
	if r, _, _ := built(target); r != target.nodes {
		t.Fatalf("target built %d of %d routers; want a fully dirty target", r, target.nodes)
	}
	mustLoad(t, target, ckpt)
	if !bytes.Equal(saveBytes(target), ckpt) {
		t.Fatal("dirty target does not re-save to the snapshot's bytes")
	}
	dr, di, dc := built(donor)
	tr, ti, tc := built(target)
	if dr != tr || di != ti || dc != tc {
		t.Fatalf("target has %d/%d/%d routers/injectors/receivers, snapshot carries %d/%d/%d", tr, ti, tc, dr, di, dc)
	}
	var a, b kernelSnapshot
	lazyRun(donor, 700, &a)
	lazyRun(target, 700, &b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored dirty target diverged from the donor")
	}
}

// TestSparseSnapshotRestoresWhatWasSaved is the sparse512 shape at a
// size a unit test can afford: a 128x128 torus with traffic confined to
// a few 4x4 neighbourhoods. The checkpoint's size follows the built
// nodes, not the topology, and the network restored from it has built
// exactly the components the source had.
func TestSparseSnapshotRestoresWhatWasSaved(t *testing.T) {
	const k = 128
	cfg := func() Config {
		return Config{
			Topo:     topology.NewTorus(k, 2),
			Alg:      routing.MinimalAdaptive{},
			Protocol: core.CR,
			Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			Seed:     3,
		}
	}
	corners := []int{5*k + 9, 40*k + 77, 90*k + 30, 120*k + 120}
	submit := func(n *Network, cycle int64) {
		for i, c := range corners {
			a, b := (cycle+int64(i))%16, (cycle*5+3)%16
			if a == b {
				continue
			}
			n.SubmitMessage(flit.Message{
				ID:         flit.MessageID(cycle*int64(len(corners)) + int64(i) + 1),
				Src:        topology.NodeID(c + int(a/4)*k + int(a%4)),
				Dst:        topology.NodeID(c + int(b/4)*k + int(b%4)),
				DataLen:    5,
				CreateTime: cycle,
			})
		}
	}
	run := func(n *Network, to int64) {
		for n.Cycle() < to {
			if n.Cycle()%4 == 0 {
				submit(n, n.Cycle())
			}
			n.Step()
			n.DrainDeliveries()
		}
	}

	src := New(cfg())
	run(src, 400)
	routers, injectors, receivers := built(src)
	if routers == 0 || routers > 16*len(corners) || src.PendingWorms() == 0 {
		t.Fatalf("source built %d routers with %d worms pending; want a busy, sparse network", routers, src.PendingWorms())
	}
	ckpt := saveBytes(src)
	// A built router is a few hundred bytes; the dense layout spent ~110
	// on each of the 16 384 nodes and 4 on each of the 65 536 links.
	if max := 1024 * routers; len(ckpt) > max {
		t.Errorf("checkpoint of %d built routers is %d bytes, want under %d", routers, len(ckpt), max)
	}

	dst := New(cfg())
	mustLoad(t, dst, ckpt)
	if r, i, c := built(dst); r != routers || i != injectors || c != receivers {
		t.Fatalf("restored network built %d/%d/%d routers/injectors/receivers, snapshot carries %d/%d/%d",
			r, i, c, routers, injectors, receivers)
	}
	if !bytes.Equal(saveBytes(dst), ckpt) {
		t.Fatal("restored network re-saves differently")
	}
	run(src, 800)
	run(dst, 800)
	if !bytes.Equal(saveBytes(dst), saveBytes(src)) {
		t.Fatal("restored network diverged from its source")
	}
}

// TestLoadStateRejectsCorruptSnapshots is the network-level table beside
// the router's: a size, index or shape in the link, queue, node and
// stamp-record sections that the kernel cannot use is an error that names it — never
// a panic, a hang, construction driven by a count the payload cannot
// back, or a link whose up bit and failure-cause count disagree
// (failLink and repairLink could never tear it down or bring it back) —
// and a payload whose sections decode but disagree with each other is
// an error from the consistency walk, which names the clause.
func TestLoadStateRejectsCorruptSnapshots(t *testing.T) {
	donor := New(lazyCfg(1))
	lazyRun(donor, lazyQuiet, &kernelSnapshot{})
	clean := saveBytes(donor)
	var linkSec, queueSec, nodeSec, stampSec snapshot.Encoder
	donor.saveLinks(&linkSec)
	donor.saveQueues(&queueSec)
	donor.saveNodes(&nodeSec)
	donor.saveStamps(&stampSec)
	// The payload is fingerprint, cycle, links, ..., nodes, stamp records.
	var cyc snapshot.Encoder
	cyc.Varint(donor.cycle)
	linkOff := 8 + cyc.Len()
	stampOff := len(clean) - stampSec.Len()
	nodeOff := stampOff - nodeSec.Len()
	if !bytes.Equal(clean[linkOff:linkOff+linkSec.Len()], linkSec.Bytes()) ||
		!bytes.Equal(clean[linkOff+linkSec.Len():][:queueSec.Len()], queueSec.Bytes()) ||
		!bytes.Equal(clean[nodeOff:stampOff], nodeSec.Bytes()) ||
		!bytes.Equal(clean[stampOff:], stampSec.Bytes()) {
		t.Fatal("section offsets are wrong; the table below would mangle the wrong bytes")
	}
	nodes, links := uint64(donor.nodes), uint64(donor.LinkCount())

	// withLinksOf re-saves n with its link section replaced by build's.
	withLinksOf := func(n *Network, build func(e *snapshot.Encoder)) []byte {
		var cyc, sec, e snapshot.Encoder
		cyc.Varint(n.cycle)
		n.saveLinks(&sec)
		raw, off := saveBytes(n), 8+cyc.Len()
		e.Raw(raw[:off])
		build(&e)
		e.Raw(raw[off+sec.Len():])
		return e.Bytes()
	}
	withLinks := func(build func(e *snapshot.Encoder)) []byte { return withLinksOf(donor, build) }
	withNodes := func(build func(e *snapshot.Encoder)) []byte {
		var e snapshot.Encoder
		e.Raw(clean[:nodeOff])
		build(&e)
		return e.Bytes()
	}
	withStamps := func(build func(e *snapshot.Encoder)) []byte {
		var e snapshot.Encoder
		e.Raw(clean[:stampOff])
		build(&e)
		return e.Bytes()
	}
	// recordList writes one receiver's records: worm deltas and sources.
	recordList := func(e *snapshot.Encoder, keys ...[2]uint64) {
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Uvarint(k[0])
			e.Varint(int64(k[1]))
			flit.PutStamps(e, flit.Stamps{})
		}
	}
	builtRecv, unbuiltRecv := -1, -1
	for id, rc := range donor.receivers {
		if rc != nil && builtRecv < 0 {
			builtRecv = id
		}
		if rc == nil && unbuiltRecv < 0 {
			unbuiltRecv = id
		}
	}
	if builtRecv < 0 || unbuiltRecv < 0 {
		t.Fatal("the donor needs a built and an unbuilt receiver")
	}
	nodeRun := func(e *snapshot.Encoder, first, count uint64, mask uint8) {
		e.Uvarint(first)
		e.Uvarint(count)
		e.U8(mask)
	}
	// linkRecordOf is n's payload with a whole, well-formed link section
	// — one explicit record, then every other link pristine — so the only
	// thing wrong with the links is what the record says. A busy record
	// carries an in-flight flit on VC vc. A row the walk rejects is built
	// on an idle network, whose links are all pristine anyway: on the
	// donor, its routers would disagree with the pristine links first.
	linkRecordOf := func(n *Network, flags uint8, refs, vc int) []byte {
		return withLinksOf(n, func(e *snapshot.Encoder) {
			e.Uvarint(0)
			e.U8(flags)
			if flags&linkFlagDownRefs != 0 {
				e.Int(refs)
			}
			if flags&linkFlagBusy != 0 {
				e.Int(vc)
				flit.PutFlit(e, &flit.Flit{})
			}
			e.Varint(0) // traversal count
			e.Uvarint(links - 1)
		})
	}
	linkRecord := func(flags uint8, refs, vc int) []byte { return linkRecordOf(donor, flags, refs, vc) }
	// withSignal is the donor's payload with one more tear-down signal
	// queued, first, ahead of the donor's own.
	queueOff := linkOff + linkSec.Len()
	withSignal := func(node int64, kind uint8, port int) []byte {
		var count, e snapshot.Encoder
		count.Uvarint(uint64(len(donor.signals)))
		e.Raw(clean[:queueOff])
		e.Uvarint(uint64(len(donor.signals)) + 1)
		e.Varint(node)
		e.U8(kind)
		e.Int(port)
		e.Int(0) // VC
		e.U64(1) // worm
		e.Raw(clean[queueOff+count.Len():])
		return e.Bytes()
	}

	// The crash rows each change one fact of a restored copy of the
	// donor, so that the sections still decode and only the walk can
	// tell: before it existed, each restored with a nil error and
	// panicked within 64 Steps, where the comment says.
	fresh := func() *Network {
		n := New(lazyCfg(1))
		mustLoad(t, n, clean)
		return n
	}
	// replaceFlit re-saves n with the one encoding of flit f replaced by
	// that of a flit like f of the next attempt's worm.
	replaceFlit := func(n *Network, f flit.Flit) []byte {
		g := f
		g.Worm++
		var fe, ge snapshot.Encoder
		flit.PutFlit(&fe, &f)
		flit.PutFlit(&ge, &g)
		raw := saveBytes(n)
		if c := bytes.Count(raw, fe.Bytes()); c != 1 {
			t.Fatalf("flit %v is encoded %d times in the payload, want 1", f, c)
		}
		return bytes.Replace(raw, fe.Bytes(), ge.Bytes(), 1)
	}
	// firstInput returns the first input of a built router, in node and
	// port order, that matches.
	firstInput := func(n *Network, match func(v router.Input) bool) router.Input {
		for _, r := range n.routers {
			for p := 0; r != nil && p < r.Degree()+n.cfg.InjectionChannels; p++ {
				for vc := 0; vc < n.cfg.VCs && (vc == 0 || p < r.Degree()); vc++ {
					if v := r.Input(p, vc); match(v) {
						return v
					}
				}
			}
		}
		t.Fatal("the donor has no such input; the row is vacuous")
		return router.Input{}
	}
	// firstAssembly returns the first built receiver assembling a worm.
	firstAssembly := func(n *Network) *core.Receiver {
		for _, rc := range n.receivers {
			if rc == nil {
				continue
			}
			if _, ok := rc.Assembling(0); ok {
				return rc
			}
		}
		t.Fatal("the donor assembles no worm; the row is vacuous")
		return nil
	}
	// receiver.go: "body flit ... without assembly".
	lostAssembly := func() []byte {
		n := fresh()
		rc := firstAssembly(n)
		w, _ := rc.Assembling(0)
		rc.Discard(w)
		return saveBytes(n)
	}
	// receiver.go: "flit out of order": the first assembly expects one
	// flit further on than its worm sends.
	skippedFlit := func() []byte {
		n := fresh()
		var e, b snapshot.Encoder
		firstAssembly(n).SaveState(&e)
		raw := e.Bytes()
		// Skip the assembly count, then the first assembly's worm, source
		// and data length, to its expected sequence number.
		d := snapshot.NewDecoder(raw)
		d.Uvarint()
		d.U64()
		d.Varint()
		d.Int()
		at := len(raw) - d.Remaining()
		b.Raw(raw[:at])
		b.Int(d.Int() + 1)
		b.Raw(raw[len(raw)-d.Remaining():])
		payload := saveBytes(n)
		if c := bytes.Count(payload, raw); c != 1 {
			t.Fatalf("the receiver is encoded %d times in the payload, want 1", c)
		}
		return bytes.Replace(payload, raw, b.Bytes(), 1)
	}
	// router.go Inject: "injected body flit ... into channel owned by":
	// a sending channel's injection input is torn down behind its back.
	tornInjection := func() []byte {
		n := fresh()
		for id, in := range n.injectors {
			if in == nil {
				continue
			}
			if w, _, sending, _ := in.Channel(0); sending {
				r := n.routers[id]
				r.ApplySignal(router.Signal{Kind: router.KillFwd, Port: r.InjPort(0), Worm: w}, nil)
				return saveBytes(n)
			}
		}
		t.Fatal("no injection channel is sending; the row is vacuous")
		return nil
	}
	// transmit.go: "tail ... leaving unheld output": a routed input's
	// only flit, its tail, is another worm's.
	foreignTail := func() []byte {
		n := fresh()
		v := firstInput(n, func(v router.Input) bool {
			return v.OutP >= 0 && v.Count == 1 && v.Back.Tail && v.Back.Kind != flit.Head
		})
		return replaceFlit(n, *v.Back)
	}
	// router.go AcceptRef: "body flit ... arrived on VC ... not owned by
	// its worm": a busy link's body flit is another worm's.
	foreignArrival := func() []byte {
		n := fresh()
		for i := range n.shards {
			for _, e := range n.shards[i].busyLinks {
				if e.f.Kind != flit.Head && !e.f.Tail {
					return replaceFlit(n, e.f)
				}
			}
		}
		t.Fatal("no link carries a body flit; the row is vacuous")
		return nil
	}

	// routerBytes is one valid router payload, to sit inside a run.
	var rb snapshot.Encoder
	donor.routers[0].SaveState(&rb)
	routerBytes := rb.Bytes()

	cases := []struct {
		name, wantSub string
		payload       []byte
	}{
		{"node-id-out-of-range", "outside [0,64)", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, nodes, 1, hasRouter)
		})},
		{"node-run-overruns", "outside [0,64)", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, nodes-1, 2, hasRouter)
		})},
		{"node-run-wraps", "outside [0,64)", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, 3, ^uint64(0)-1, hasRouter)
		})},
		{"node-run-empty", "covers 0 node ids", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, 3, 0, hasRouter)
		})},
		{"node-ids-descending", "before the end of the previous run", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(2)
			nodeRun(e, 9, 1, hasRouter)
			e.Raw(routerBytes)
			nodeRun(e, 2, 1, hasRouter)
		})},
		{"node-ids-overlapping", "before the end of the previous run", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(2)
			nodeRun(e, 4, 2, hasRouter)
			e.Raw(routerBytes)
			e.Raw(routerBytes)
			nodeRun(e, 5, 1, hasRouter)
		})},
		{"presence-empty", "presence bits 0x00", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, 0, 1, 0)
		})},
		{"presence-unknown", "presence bits 0x09", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			nodeRun(e, 0, 1, hasRouter|8)
		})},
		{"node-run-count-over-nodes", "node runs", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(nodes + 1)
		})},
		{"node-run-truncated", "node run 0", withNodes(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			e.Uvarint(0)
		})},
		{"nodes-unbacked", "router 0", withNodes(func(e *snapshot.Encoder) {
			// Every node claimed, nothing behind the claim.
			e.Uvarint(1)
			nodeRun(e, 0, nodes, presenceAll)
		})},
		{"link-run-past-link-count", "pristine-link run", withLinks(func(e *snapshot.Encoder) {
			e.Uvarint(links + 1)
		})},
		{"link-run-huge", "pristine-link run", withLinks(func(e *snapshot.Encoder) {
			e.Uvarint(1 << 62)
		})},
		{"link-flags-unknown", "unknown flags 0x11", withLinks(func(e *snapshot.Encoder) {
			e.Uvarint(0)
			e.U8(linkFlagUp | 16)
		})},
		{"link-bad-without-burst", "burst state on a network without bursty corruption", linkRecord(linkFlagUp|linkFlagBad, 0, 0)},
		{"link-up-with-causes", "up=true with 1 failure causes", linkRecord(linkFlagUp|linkFlagDownRefs, 1, 0)},
		{"link-down-without-causes", "up=false with 0 failure causes", linkRecord(0, 0, 0)},
		{"link-down-zero-causes", "up=false with 0 failure causes", linkRecord(linkFlagDownRefs, 0, 0)},
		{"link-causes-negative", "with -1 failure causes", linkRecord(linkFlagDownRefs, -1, 0)},
		{"link-causes-overflow-int16", "with 65536 failure causes", linkRecord(linkFlagDownRefs, 1<<16, 0)},
		{"link-busy-while-down", "busy while down", linkRecordOf(New(lazyCfg(1)), linkFlagBusy|linkFlagDownRefs, 1, 0)},
		{"link-busy-vc-out-of-range", "in-flight VC 255 outside", linkRecord(linkFlagUp|linkFlagBusy, 0, 255)},
		{"link-record-truncated", "link state", clean[:linkOff+linkSec.Len()/2]},
		{"link-run-truncated", "link state", clean[:linkOff]},
		{"signal-node-out-of-range", "signal 0 names node 9999 outside [0,64)", withSignal(9999, uint8(router.KillFwd), 0)},
		{"signal-kind-unknown", "signal 0 has unknown kind 7", withSignal(0, 7, 0)},
		{"signal-port-out-of-range", "signal 0 (FKILL) names channel (40,0)", withSignal(0, uint8(router.KillBwd), 40)},
		// The stamp rows follow the node section, and the crash rows are
		// the walk's: both are rejected once the nodes are built.
		{"stamps-past-nodes", "not ascending within [0,64)", withStamps(func(e *snapshot.Encoder) {
			e.Uvarint(nodes + 1)
		})},
		{"stamps-unbuilt-receiver", "whose receiver is not built", withStamps(func(e *snapshot.Encoder) {
			e.Uvarint(uint64(unbuiltRecv) + 1)
			recordList(e, [2]uint64{5, 1})
			e.Uvarint(0)
		})},
		{"stamps-none", "none", withStamps(func(e *snapshot.Encoder) {
			e.Uvarint(uint64(builtRecv) + 1)
			recordList(e)
			e.Uvarint(0)
		})},
		{"stamps-descending-sources", "does not follow", withStamps(func(e *snapshot.Encoder) {
			e.Uvarint(uint64(builtRecv) + 1)
			recordList(e, [2]uint64{5, 3}, [2]uint64{0, 2})
			e.Uvarint(0)
		})},
		{"stamps-unterminated", "stamp records", withStamps(func(e *snapshot.Encoder) {
			e.Uvarint(uint64(builtRecv) + 1)
			recordList(e, [2]uint64{5, 1})
		})},
		{"body-flit-without-assembly", "next to its receiver, which expects 0 (assembling false)", lostAssembly()},
		{"flit-out-of-order", "sends flit 20 next to its receiver, which expects 21", skippedFlit()},
		{"injected-body-into-torn-down-channel", "disagrees with its input (worm 8448, active false", tornInjection()},
		{"tail-leaving-unheld-output", "of worm 10240 holds {PAD|TAIL worm=40.1", foreignTail()},
		{"body-flit-on-vc-not-its-worms", "carries {PAD worm=33.1 seq=14 dst=3} from an output its worm holds: false", foreignArrival()},
	}
	builtRows := 10
	if err := New(lazyCfg(1)).LoadState(snapshot.NewDecoder(clean)); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New(lazyCfg(1))
			err := n.LoadState(snapshot.NewDecoder(tc.payload))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the field (want %q)", err, tc.wantSub)
			}
			if r, _, _ := built(n); r > 2 && i < len(cases)-builtRows {
				t.Fatalf("rejected snapshot still had %d routers built", r)
			}
		})
	}
}

// FuzzNetworkLoadState offers arbitrary payloads to LoadState and asks
// that it return — an error or success, never a panic — and that what it
// accepts is a network that runs: stepped 64 cycles, it never panics,
// and every Step ends with the consistency walk (each configuration sets
// Config.Check), so a restore the walk accepts stays consistent. What it
// accepts must also be a state the codec states stably: the accepted
// payload's re-save S1 loads, and a network restored from S1 re-saves
// to S1 byte for byte. A payload need not be canonical itself (a
// pristine link may arrive as an explicit record), but every value
// LoadState derives instead of reading — worklists, output holders, pad
// lengths, message ids — must land where a second restore puts it. The
// seeds are the three pinned payloads (mid-run networks) and a save of
// a mostly unbuilt one, each from its own configuration; every input is
// offered to all four, so a mutation that leaves the leading
// fingerprint alone gets past one gate.
func FuzzNetworkLoadState(f *testing.F) {
	for _, file := range []string{goldenSnapshotFile, "damq_midrun.crsnap", "shared_midrun.crsnap"} {
		_, payload, err := snapshot.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	donor := New(lazyCfg(1))
	lazyRun(donor, lazyQuiet, &kernelSnapshot{})
	f.Add(saveBytes(donor))

	configs := []Config{lazyCfg(1), snapCfg(), pooledSnapCfg(sharedOrgs[0]), pooledSnapCfg(sharedOrgs[1])}
	for _, cfg := range configs {
		if !cfg.Check {
			f.Fatal("a configuration without Config.Check steps without the walk")
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, cfg := range configs {
			n := New(cfg)
			if n.LoadState(snapshot.NewDecoder(payload)) != nil {
				continue
			}
			s1 := saveBytes(n)
			again := New(cfg)
			if err := again.LoadState(snapshot.NewDecoder(s1)); err != nil {
				t.Fatalf("the re-save of an accepted payload is rejected: %v", err)
			}
			if s2 := saveBytes(again); !bytes.Equal(s2, s1) {
				t.Fatalf("an accepted payload's re-save is not a fixed point: %d bytes, then %d", len(s1), len(s2))
			}
			n.Run(64)
		}
	})
}
