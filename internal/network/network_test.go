package network

import (
	"fmt"
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

func crNet(topo topology.Topology) *Network {
	return New(Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Check:    true,
	})
}

// runUntilIdle steps until no worms, queues or busy injectors remain.
func runUntilIdle(t *testing.T, n *Network, maxCycles int64) []core.Delivery {
	t.Helper()
	var out []core.Delivery
	for c := int64(0); c < maxCycles; c++ {
		n.Step()
		out = append(out, n.DrainDeliveries()...)
		if n.QueuedMessages() == 0 && n.PendingWorms() == 0 && !anyBusy(n) {
			return out
		}
	}
	t.Fatalf("network not idle after %d cycles: queued=%d worms=%d",
		maxCycles, n.QueuedMessages(), n.PendingWorms())
	return nil
}

func anyBusy(n *Network) bool {
	for id := 0; id < n.topo.Nodes(); id++ {
		// Injectors are constructed lazily; an untouched one is idle.
		if in := n.injectors[id]; in != nil && in.Busy() {
			return true
		}
	}
	return false
}

func TestSingleMessageDelivery(t *testing.T) {
	n := crNet(topology.NewTorus(8, 2))
	m := flit.Message{ID: 1, Src: 0, Dst: 3, DataLen: 4, CreateTime: 0}
	n.SubmitMessage(m)
	ds := runUntilIdle(t, n, 1000)
	if len(ds) != 1 {
		t.Fatalf("%d deliveries, want 1", len(ds))
	}
	d := ds[0]
	if d.Msg != 1 || d.Src != 0 || d.DataLen != 4 || !d.DataOK {
		t.Fatalf("delivery %+v", d)
	}
	// Distance 3, frame = IminCR(3,2)=12 flits: latency should be small.
	if d.Time < 10 || d.Time > 60 {
		t.Fatalf("latency %d cycles out of expected range", d.Time)
	}
	if got := n.InjectorStats().Kills; got != 0 {
		t.Fatalf("unloaded network killed %d worms", got)
	}
}

func TestManyMessagesExactlyOnce(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := crNet(topo)
	want := map[flit.MessageID]topology.NodeID{}
	id := flit.MessageID(1)
	for src := 0; src < topo.Nodes(); src++ {
		for k := 0; k < 6; k++ {
			dst := (src + 1 + k*3) % topo.Nodes()
			if dst == src {
				dst = (dst + 1) % topo.Nodes()
			}
			m := flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 6}
			want[id] = topology.NodeID(dst)
			n.SubmitMessage(m)
			id++
		}
	}
	ds := runUntilIdle(t, n, 100000)
	if len(ds) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(ds), len(want))
	}
	seen := map[flit.MessageID]bool{}
	for _, d := range ds {
		if seen[d.Msg] {
			t.Fatalf("message %d delivered twice", d.Msg)
		}
		seen[d.Msg] = true
		if !d.DataOK {
			t.Fatalf("message %d corrupted", d.Msg)
		}
		if _, ok := want[d.Msg]; !ok {
			t.Fatalf("unknown message %d delivered", d.Msg)
		}
	}
	if n.ReceiverStats().OrderErrors != 0 {
		t.Fatalf("order violations: %d", n.ReceiverStats().OrderErrors)
	}
}

// The compressionless property: when a worm's header is blocked, the
// source can inject at most SlackBound flits before stalling.
func TestCompressionlessSlackBound(t *testing.T) {
	topo := topology.NewTorus(8, 1)
	n := New(Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Timeout:  100000, // never kill: we want to observe the stall
		Backoff:  core.Backoff{Kind: core.BackoffStatic, Gap: 8},
		Check:    true,
	})
	// A long worm from node 2 occupies node 0's single ejection channel.
	blocker := flit.Message{ID: 1, Src: 2, Dst: 0, DataLen: 400}
	n.SubmitMessage(blocker)
	n.Run(30) // let it reach the destination and start draining
	// Now node 7 (distance 1 from 0) sends to node 0: its header will
	// block at node 0's busy ejection channel.
	probe := flit.Message{ID: 2, Src: 7, Dst: 0, DataLen: 300}
	n.SubmitMessage(probe)
	n.Run(80)
	st := n.injectors[7].Stats()
	injected := st.DataFlits + st.PadFlits
	// Path = 1 hop: slack = B + 1*(B+1) = 2 + 3 = 5 flits absorbed, plus
	// the flit consumed... none consumed: header never ejected. Allow +1
	// for the flit captured in the destination ejection pipeline? The
	// header waits in node 0's input buffer, so exactly SlackBound fit.
	maxSlack := int64(core.SlackBound(1, 2))
	if injected > maxSlack {
		t.Fatalf("source injected %d flits with blocked header, slack bound is %d", injected, maxSlack)
	}
	if injected == 0 {
		t.Fatal("probe never started injecting")
	}
	if st.StallCycles == 0 {
		t.Fatal("blocked worm produced no source-visible stall")
	}
}

// Fully adaptive routing with no virtual channels and no CR protocol
// deadlocks under heavy load on a torus; the same network with CR always
// makes progress. This is the paper's core claim demonstrated.
func TestAdaptiveWithoutCRDeadlocks(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	build := func(protocol core.Protocol, timeout int) *Network {
		return New(Config{
			Topo:     topo,
			Alg:      routing.MinimalAdaptive{},
			Protocol: protocol,
			Timeout:  timeout,
			Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			Check:    true,
		})
	}
	load := func(n *Network) {
		id := flit.MessageID(1)
		// Dense antipodal permutation traffic with long messages wedges
		// the 1-VC adaptive network quickly.
		for round := 0; round < 8; round++ {
			for src := 0; src < topo.Nodes(); src++ {
				dst := (src + topo.Nodes()/2 + round) % topo.Nodes()
				if dst == src {
					continue
				}
				n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 24})
				id++
			}
		}
	}
	plain := build(core.Plain, 0)
	load(plain)
	plain.Run(8000)
	if plain.CyclesSinceProgress() < 1000 {
		t.Fatalf("plain adaptive network did not deadlock (last progress %d cycles ago)",
			plain.CyclesSinceProgress())
	}

	cr := build(core.CR, 0)
	load(cr)
	deliveries := 0
	for c := 0; c < 400000 && deliveries < int(cr.InjectorStats().Submitted); c++ {
		cr.Step()
		deliveries += len(cr.DrainDeliveries())
		if cr.QueuedMessages() == 0 && cr.PendingWorms() == 0 && !anyBusy(cr) {
			break
		}
		if cr.CyclesSinceProgress() > 5000 {
			t.Fatalf("CR network stalled for %d cycles", cr.CyclesSinceProgress())
		}
	}
	if got := cr.InjectorStats().Submitted; int64(deliveries) != got {
		t.Fatalf("CR delivered %d of %d messages", deliveries, got)
	}
	if cr.InjectorStats().Kills == 0 {
		t.Log("note: CR resolved the load without any kills")
	}
}

func TestDORBaselineDeliversUnderLoad(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:     topo,
		Alg:      routing.DOR{},
		Protocol: core.Plain,
		BufDepth: 4,
		Check:    true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 6; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src*7 + round*3 + 1) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 8})
			id++
		}
	}
	ds := runUntilIdle(t, n, 200000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("DOR delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	if n.InjectorStats().PadFlits != 0 {
		t.Fatal("plain protocol injected padding")
	}
	if n.RouterStats().PDS != 0 {
		t.Fatal("DOR counted PDS")
	}
}

func TestFCRTransientFaultsDeliveredIntact(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: 0.01,
		Seed:          7,
		Check:         true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + 3 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 8})
			id++
		}
	}
	ds := runUntilIdle(t, n, 500000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("FCR delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	for _, d := range ds {
		if !d.DataOK {
			t.Fatalf("FCR delivered corrupt data: %+v", d)
		}
	}
	if n.TransientFaults() == 0 {
		t.Fatal("fault process injected nothing; test is vacuous")
	}
	st := n.InjectorStats()
	if st.LateFKills != 0 {
		t.Fatalf("%d FKILLs arrived after worm completion: padding bound violated", st.LateFKills)
	}
	if st.FKills == 0 && n.ReceiverStats().FKillsSent == 0 && n.RouterStats().HeaderFaults == 0 {
		t.Fatal("faults injected but no FKILL activity observed")
	}
}

func TestCRWithoutFCRDeliversCorruptData(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.CR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: 0.01,
		Seed:          11,
		Check:         true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 20; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + 5 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 8})
			id++
		}
	}
	runUntilIdle(t, n, 500000)
	if n.ReceiverStats().CorruptData == 0 {
		t.Fatal("expected silent corruption under CR without FCR protection")
	}
}

func TestPermanentFaultReroutedWithMisroute(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	var linkList []faults.LinkID
	// Kill node 0's +x link at cycle 40.
	linkList = append(linkList, faults.LinkID{Node: 0, Port: int(topology.PortFor(0, true))})
	n := New(Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		MisrouteAfter: 2,
		MaxDetours:    4,
		Faults:        faults.NewSchedule([]faults.Event{{Cycle: 40, Link: linkList[0]}}),
		Check:         true,
	})
	// Steady stream from node 0 to node 1 (straight over the doomed link).
	for i := 1; i <= 30; i++ {
		n.SubmitMessage(flit.Message{ID: flit.MessageID(i), Src: 0, Dst: 1, DataLen: 8})
	}
	ds := runUntilIdle(t, n, 300000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("delivered %d of %d despite misrouting", len(ds), n.InjectorStats().Submitted)
	}
	for _, d := range ds {
		if !d.DataOK {
			t.Fatalf("corrupt delivery %+v", d)
		}
	}
	if n.InjectorStats().Failed != 0 {
		t.Fatalf("%d messages failed", n.InjectorStats().Failed)
	}
}

func TestDuatoCountsPDS(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:     topo,
		Alg:      routing.Duato{AdaptiveVCs: 1},
		Protocol: core.Plain,
		Check:    true,
	})
	id := flit.MessageID(1)
	for round := 0; round < 12; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + topo.Nodes()/2) % topo.Nodes()
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 16})
			id++
		}
	}
	ds := runUntilIdle(t, n, 300000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("Duato delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
	if n.RouterStats().PDS == 0 {
		t.Fatal("antipodal saturation produced no PDS — escape channels never used")
	}
}

func TestMeshAndHypercubeEndToEnd(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh(4, 2),
		topology.NewHypercube(4),
	} {
		n := crNet(topo)
		id := flit.MessageID(1)
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + topo.Nodes()/2) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 8})
			id++
		}
		ds := runUntilIdle(t, n, 200000)
		if int64(len(ds)) != n.InjectorStats().Submitted {
			t.Fatalf("%s: delivered %d of %d", topo.Name(), len(ds), n.InjectorStats().Submitted)
		}
	}
}

func TestMultichannelInterface(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:              topo,
		Alg:               routing.MinimalAdaptive{},
		Protocol:          core.CR,
		InjectionChannels: 2,
		EjectionChannels:  2,
		Backoff:           core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Check:             true,
	})
	id := flit.MessageID(1)
	for k := 0; k < 40; k++ {
		n.SubmitMessage(flit.Message{ID: id, Src: 0, Dst: topology.NodeID(1 + k%3), DataLen: 8})
		id++
	}
	ds := runUntilIdle(t, n, 100000)
	if int64(len(ds)) != n.InjectorStats().Submitted {
		t.Fatalf("multichannel delivered %d of %d", len(ds), n.InjectorStats().Submitted)
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() *Network {
		n := New(Config{
			Topo:          topology.NewTorus(4, 2),
			Alg:           routing.MinimalAdaptive{},
			Protocol:      core.FCR,
			Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			TransientRate: 0.005,
			Seed:          99,
		})
		id := flit.MessageID(1)
		for round := 0; round < 5; round++ {
			for src := 0; src < 16; src++ {
				n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID((src + 7) % 16), DataLen: 8})
				id++
			}
		}
		return n
	}
	a, b := build(), build()
	var da, db []core.Delivery
	for c := 0; c < 20000; c++ {
		a.Step()
		b.Step()
		da = append(da, a.DrainDeliveries()...)
		db = append(db, b.DrainDeliveries()...)
	}
	if len(da) != len(db) {
		t.Fatalf("replays diverged: %d vs %d deliveries", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, da[i], db[i])
		}
	}
	if len(da) == 0 {
		t.Fatal("no deliveries; test vacuous")
	}
}

func TestLinksEnumeration(t *testing.T) {
	n := crNet(topology.NewTorus(4, 2))
	links := n.Links()
	if len(links) != 16*4 {
		t.Fatalf("torus 4x4 has %d links, want 64", len(links))
	}
	m := New(Config{Topo: topology.NewMesh(4, 2), Alg: routing.MinimalAdaptive{}, Protocol: core.CR,
		Backoff: core.Backoff{Kind: core.BackoffStatic, Gap: 8}})
	// 4x4 mesh: 2 * 2 * (3*4) = 48 unidirectional links.
	if got := len(m.Links()); got != 48 {
		t.Fatalf("mesh links = %d, want 48", got)
	}
}

func TestConfigDefaultsAndErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil topo accepted")
		}
	}()
	New(Config{})
}

// TestSubmitRejectsUnencodableMessage: a message longer than a head
// flit's 16-bit length field is refused when it is submitted, not
// accepted and left to panic when the injector builds its head inside
// Step.
func TestSubmitRejectsUnencodableMessage(t *testing.T) {
	n := crNet(topology.NewTorus(4, 2))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "length 70000 outside [1,65535]") {
			t.Fatalf("SubmitMessage of a 70000-flit message: recovered %v, want a length error", r)
		}
		if n.Cycle() != 0 {
			t.Fatalf("the network stepped to cycle %d", n.Cycle())
		}
	}()
	n.SubmitMessage(flit.Message{ID: 1, Src: 0, Dst: 5, DataLen: 70000})
}

// TestNewRejectsInvalidConfig: routers, injectors and receivers are
// built lazily, so the configurations they reject must be refused by New
// itself — not accepted and left to panic from the first SubmitMessage
// or from inside Step (on a forked range when Shards > 1).
func TestNewRejectsInvalidConfig(t *testing.T) {
	torus := topology.NewTorus(4, 2)
	cases := []struct {
		name, wantSub string
		cfg           Config
	}{
		{"negative-bufdepth", "BufDepth", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.CR, BufDepth: -1}},
		{"negative-injection-channels", "injection", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.CR, InjectionChannels: -1}},
		{"misroute-without-detours", "MaxDetours", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.CR, MisrouteAfter: 2}},
		{"unknown-buforg", "buffer org", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.CR, BufOrg: 9}},
		{"dor-on-torus-one-vc", "needs 2 VCs", Config{Topo: torus, Alg: routing.DOR{}, Protocol: core.Plain, VCs: 1}},
		{"transient-rate-above-one", "transient rate", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.FCR, TransientRate: 1.5}},
		{"burst-sojourn-below-one", "burst sojourns", Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.FCR,
			Burst: &faults.BurstSpec{RateBad: 0.5, MeanGood: 0.5, MeanBad: 10}}},
		// A head flit's 20-bit node fields address 2^20 nodes; 1025^2 is more.
		{"nodes-past-header", "a head flit addresses at most 1048576", Config{Topo: topology.NewTorus(1025, 2), Alg: routing.MinimalAdaptive{}, Protocol: core.CR}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %v, want an error mentioning %q", err, tc.wantSub)
			}
			defer func() {
				if recover() == nil {
					t.Error("New returned a network for an invalid configuration")
				}
			}()
			New(tc.cfg)
		})
	}
}
