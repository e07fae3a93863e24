package network

import (
	"fmt"
	"reflect"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// checkStamps asserts one delivery's phase timestamps partition the
// creation->delivery interval: each phase boundary is ordered and no
// component is negative.
func checkStamps(t *testing.T, d core.Delivery) (queue, retry, flight, drain int64) {
	t.Helper()
	s := d.Stamps
	if s.FirstInject < s.Create {
		t.Fatalf("msg %d: first inject %d before creation %d", d.Msg, s.FirstInject, s.Create)
	}
	if s.AttemptInject < s.FirstInject {
		t.Fatalf("msg %d: attempt inject %d before first inject %d", d.Msg, s.AttemptInject, s.FirstInject)
	}
	if d.HeadArrived < s.AttemptInject {
		t.Fatalf("msg %d: head arrived %d before injection %d", d.Msg, d.HeadArrived, s.AttemptInject)
	}
	if d.Time < d.HeadArrived {
		t.Fatalf("msg %d: tail drained %d before head arrived %d", d.Msg, d.Time, d.HeadArrived)
	}
	if s.Backoff < 0 || s.Backoff > s.AttemptInject-s.FirstInject {
		t.Fatalf("msg %d: backoff %d outside retry phase [0,%d]", d.Msg, s.Backoff, s.AttemptInject-s.FirstInject)
	}
	return s.FirstInject - s.Create, s.AttemptInject - s.FirstInject, d.HeadArrived - s.AttemptInject, d.Time - d.HeadArrived
}

func TestPhaseStampsPartitionLatency(t *testing.T) {
	n := crNet(topology.NewTorus(8, 2))
	n.SubmitMessage(flit.Message{ID: 1, Src: 0, Dst: 5, DataLen: 4, CreateTime: 0})
	ds := runUntilIdle(t, n, 1000)
	if len(ds) != 1 {
		t.Fatalf("%d deliveries", len(ds))
	}
	d := ds[0]
	queue, retry, flight, drain := checkStamps(t, d)
	if queue+retry+flight+drain != d.Time-d.Stamps.Create {
		t.Fatalf("phases %d+%d+%d+%d do not sum to end-to-end %d",
			queue, retry, flight, drain, d.Time-d.Stamps.Create)
	}
	// Unloaded first-try delivery: no retry phase, no backoff.
	if retry != 0 || d.Stamps.Backoff != 0 {
		t.Fatalf("unloaded delivery shows retry=%d backoff=%d", retry, d.Stamps.Backoff)
	}
	if flight <= 0 {
		t.Fatalf("flight = %d over a multi-hop path", flight)
	}
}

// Under saturating antipodal CR load, kills and retransmissions happen;
// the retry phase must then be visible in the stamps and the partition
// must still be exact for every delivery.
func TestPhaseStampsUnderRetries(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := New(Config{
		Topo:     topo,
		Alg:      crNet(topo).cfg.Alg,
		Protocol: core.CR,
		Timeout:  8,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
	})
	id := flit.MessageID(1)
	for round := 0; round < 6; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + topo.Nodes()/2) % topo.Nodes()
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 16})
			id++
		}
	}
	ds := runUntilIdle(t, n, 200000)
	if n.InjectorStats().Kills == 0 {
		t.Fatal("contended run produced no kills; retry phase untested")
	}
	sawRetry := false
	for _, d := range ds {
		queue, retry, flight, drain := checkStamps(t, d)
		if queue+retry+flight+drain != d.Time-d.Stamps.Create {
			t.Fatalf("msg %d: phases do not partition end-to-end latency", d.Msg)
		}
		if retry > 0 {
			sawRetry = true
			if d.Worm.Attempt() == 0 {
				t.Fatalf("msg %d: retry phase %d on attempt 0", d.Msg, retry)
			}
		}
	}
	if !sawRetry {
		t.Fatal("kills observed but no delivery carried a retry phase")
	}
}

// schedule is a traffic script: the messages submitted at each cycle,
// in submission order.
type schedule [][]flit.Message

// genSchedule draws cycles cycles of gen's traffic.
func genSchedule(topo topology.Topology, gen *traffic.Generator, cycles int64) schedule {
	s := make(schedule, cycles)
	for c := int64(0); c < cycles; c++ {
		for node := 0; node < topo.Nodes(); node++ {
			if m, ok := gen.Tick(topology.NodeID(node), c); ok {
				s[c] = append(s[c], m)
			}
		}
	}
	return s
}

// headKey names one attempt by the node that injected it.
type headKey struct {
	src  topology.NodeID
	worm flit.WormID
}

// stampRun is one run of a stamp scenario: its delivery stream, the
// cycle each attempt's head and last flit were injected and the last
// flit's sequence number, the heads that reached their receivers (all
// from the trace), and the network it ended with.
type stampRun struct {
	n          *Network
	deliveries []core.Delivery
	heads      map[headKey]int64
	lastFlit   map[headKey]int64
	lastSeq    map[headKey]int
	ejected    map[headKey]bool // keyed by the receiving node, not the source
}

// runStamped runs script on cfg's network at the given range count
// until it drains. At cycle saveAt it saves the network and continues
// on a fresh one restored from the save (negative: never).
func runStamped(t *testing.T, cfg Config, script schedule, shards int, saveAt int64) stampRun {
	t.Helper()
	cfg.Shards = shards
	run := stampRun{n: New(cfg), heads: map[headKey]int64{}, lastFlit: map[headKey]int64{},
		lastSeq: map[headKey]int{}, ejected: map[headKey]bool{}}
	trace := func(ev Event) {
		k := headKey{ev.Node, ev.Worm}
		switch {
		case ev.Kind == EvInject:
			if ev.Seq == 0 {
				run.heads[k] = ev.Cycle
			}
			run.lastFlit[k] = ev.Cycle
			run.lastSeq[k] = ev.Seq
		case ev.Kind == EvEject && ev.Seq == 0:
			run.ejected[k] = true
		}
	}
	run.n.SetTracer(trace)
	for c := int64(0); ; c++ {
		if c == saveAt {
			payload := saveBytes(run.n)
			run.n = New(cfg)
			mustLoad(t, run.n, payload)
			run.n.SetTracer(trace)
		}
		if c < int64(len(script)) {
			for _, m := range script[c] {
				run.n.SubmitMessage(m)
			}
		}
		run.n.Step()
		run.deliveries = append(run.deliveries, run.n.DrainDeliveries()...)
		if c >= int64(len(script)) && run.n.QueuedMessages() == 0 && run.n.PendingWorms() == 0 && !anyBusy(run.n) {
			return run
		}
		if c > 200000 {
			t.Fatalf("shards=%d: not idle after %d cycles", shards, c)
		}
	}
}

// stampRecords counts the stamp records the network's receivers hold.
func stampRecords(n *Network) int {
	total := 0
	for _, rc := range n.receivers {
		if rc != nil {
			total += rc.StampRecords()
		}
	}
	return total
}

// TestStampJoin checks the delivery's stamps against the source's truth
// in runs that reach every way an attempt ends: delivered, killed by
// its source's timeout, FKILLed by its receiver, delivered with a
// corrupted header, delivered after its source has moved on, sharing
// its id with another source's message, and lost with a failing link.
// In the single-range run every delivery's Create is its message's,
// its AttemptInject and FirstInject are the cycles the trace saw this
// attempt's and the first attempt's heads injected, and its phases
// partition its latency (checkStamps). The stream, stamps included, is
// the same at every range count with a save and restore mid-run. Once
// the run drains, the stamp records left are exactly the attempts
// whose source was done and whose head never arrived: under CR and FCR
// a head is consumed before its source commits, so an attempt torn
// down before its head arrives is one its source withdraws and none is
// left; unpadded Plain leaves one for each worm a failing link kills
// with its source done and its head on the way.
func TestStampJoin(t *testing.T) {
	torus := topology.NewTorus(4, 2)
	uniform := func(topo topology.Topology, load float64, msgLen int, seed uint64, cycles int64) schedule {
		return genSchedule(topo, traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, load, msgLen, seed), cycles)
	}
	base := func() Config {
		return Config{Topo: torus, Alg: routing.MinimalAdaptive{}, Protocol: core.CR,
			Backoff: core.Backoff{Kind: core.BackoffExponential, Gap: 8}, Seed: 3, Check: true}
	}
	type scenario struct {
		name   string
		cfg    func() Config
		script schedule
		// reached reports how often the run took the path the scenario
		// is there for; it must be at least once.
		reached func(run stampRun, truth map[headKey]flit.Message, lost int64) int
	}
	retried := func(run stampRun, _ map[headKey]flit.Message, _ int64) int {
		k := 0
		for _, d := range run.deliveries {
			if d.Worm.Attempt() > 0 {
				k++
			}
		}
		return k
	}
	// Two generators whose ids both start at 1, one on the even nodes
	// and one on the odd: every id is some two sources' at once. Every
	// 20 cycles, besides, nodes 0 and 5 send one id to node 6, node 5 a
	// cycle later and two hops nearer, so its head arrives while node
	// 0's record of the same worm waits there.
	reused := func() schedule {
		a := uniform(torus, 0.4, 6, 41, 400)
		b := uniform(torus, 0.4, 6, 42, 400)
		s := make(schedule, len(a))
		for c := range a {
			for _, m := range a[c] {
				if m.Src%2 == 0 {
					s[c] = append(s[c], m)
				}
			}
			for _, m := range b[c] {
				if m.Src%2 == 1 {
					s[c] = append(s[c], m)
				}
			}
			if c%20 == 0 {
				id := flit.MessageID(1_000_000 + c)
				s[c] = append(s[c], flit.Message{ID: id, Src: 0, Dst: 6, DataLen: 3, CreateTime: int64(c)})
				s[c+1] = append(s[c+1], flit.Message{ID: id, Src: 5, Dst: 6, DataLen: 3, CreateTime: int64(c + 1)})
			}
		}
		return s
	}()
	dorTorus := topology.NewTorus(6, 2)
	flapping := func(nodes int) *faults.Schedule {
		var evs []faults.Event
		for i := 0; i < 100; i++ {
			l := faults.LinkID{Node: (7 * i) % nodes, Port: i % 4}
			evs = append(evs, faults.Event{Cycle: int64(20 + 4*i), Link: l},
				faults.Event{Cycle: int64(22 + 4*i), Link: l, Up: true})
		}
		return faults.NewSchedule(evs)
	}
	scenarios := []scenario{
		{"cr-past-saturation", func() Config {
			c := base()
			c.Timeout = 8
			return c
		}, uniform(torus, 0.9, 12, 11, 300), retried},
		{"fcr-transient", func() Config {
			c := base()
			c.Protocol, c.TransientRate = core.FCR, 5e-3
			return c
		}, uniform(torus, 0.3, 8, 12, 600), retried},
		{"cr-corrupt-head-delivered", func() Config {
			c := base()
			c.TransientRate = 3e-2
			return c
		}, uniform(torus, 0.3, 4, 13, 500), func(run stampRun, truth map[headKey]flit.Message, _ int64) int {
			k := 0
			for _, d := range run.deliveries {
				if m := truth[trueSource(run, d)]; d.Src != m.Src || d.DataLen != m.DataLen {
					k++
				}
			}
			return k
		}},
		{"plain-dor-source-moves-on", func() Config {
			return Config{Topo: dorTorus, Alg: routing.DOR{}, Protocol: core.Plain, Seed: 3, Check: true}
		}, uniform(dorTorus, 0.2, 2, 14, 300), func(run stampRun, _ map[headKey]flit.Message, _ int64) int {
			k := 0
			for _, d := range run.deliveries {
				if run.lastFlit[trueSource(run, d)] < d.HeadArrived {
					k++
				}
			}
			return k
		}},
		{"plain-dor-heads-lost", func() Config {
			c := Config{Topo: dorTorus, Alg: routing.DOR{}, Protocol: core.Plain, Seed: 3, Check: true}
			c.Faults = flapping(dorTorus.Nodes())
			return c
		}, uniform(dorTorus, 0.3, 2, 16, 420), func(run stampRun, truth map[headKey]flit.Message, _ int64) int {
			// Attempts whose source injected the last flit (Plain pads
			// nothing) and whose head never reached the receiver.
			k := 0
			for h := range run.heads {
				m := truth[headKey{h.src, flit.MakeWormID(h.worm.Message(), 0)}]
				if run.lastSeq[h] == m.DataLen-1 && !run.ejected[headKey{m.Dst, h.worm}] {
					k++
				}
			}
			return k
		}},
		{"reused-message-ids", base, reused, func(run stampRun, truth map[headKey]flit.Message, _ int64) int {
			// Heads that arrived while another source's record of their
			// worm waited at the same node.
			k := 0
			for _, d := range run.deliveries {
				dst := truth[headKey{d.Src, flit.MakeWormID(d.Msg, 0)}].Dst
				for _, e := range run.deliveries {
					if e.Worm == d.Worm && e.Src != d.Src && truth[headKey{e.Src, flit.MakeWormID(e.Msg, 0)}].Dst == dst &&
						e.Stamps.AttemptInject < d.HeadArrived && d.HeadArrived < e.HeadArrived {
						k++
					}
				}
			}
			return k
		}},
		{"cr-committed-worms-lost", func() Config {
			c := base()
			c.Faults = flapping(torus.Nodes())
			return c
		}, uniform(torus, 0.5, 24, 15, 420), func(_ stampRun, _ map[headKey]flit.Message, lost int64) int {
			return int(lost)
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			truth := map[headKey]flit.Message{}
			submitted := 0
			for _, ms := range sc.script {
				for _, m := range ms {
					k := headKey{m.Src, flit.MakeWormID(m.ID, 0)}
					if _, dup := truth[k]; dup {
						t.Fatalf("the script sends message %d from node %d twice", m.ID, m.Src)
					}
					truth[k] = m
					submitted++
				}
			}
			ref := runStamped(t, sc.cfg(), sc.script, 1, -1)
			for _, d := range ref.deliveries {
				src := trueSource(ref, d).src
				m := truth[headKey{src, flit.MakeWormID(d.Msg, 0)}]
				s := d.Stamps
				if s.Create != m.CreateTime || s.AttemptInject != ref.heads[headKey{src, d.Worm}] ||
					s.FirstInject != ref.heads[headKey{src, flit.MakeWormID(d.Msg, 0)}] {
					t.Fatalf("worm %d from node %d: stamps %+v; created %d, first head at %d, this head at %d",
						d.Worm, src, s, m.CreateTime, ref.heads[headKey{src, flit.MakeWormID(d.Msg, 0)}], ref.heads[headKey{src, d.Worm}])
				}
				checkStamps(t, d)
			}
			lost := int64(submitted-len(ref.deliveries)) - ref.n.InjectorStats().Failed
			k := sc.reached(ref, truth, lost)
			if k == 0 {
				t.Fatal("the run never took the path the scenario is for")
			}
			t.Logf("%d deliveries of %d messages; the path taken %d times", len(ref.deliveries), submitted, k)
			if r := stampRecords(ref.n); r != 0 {
				t.Fatalf("%d stamp records left after the run drained (%d messages lost)", r, lost)
			}
			for _, shards := range goldenShards() {
				got := runStamped(t, sc.cfg(), sc.script, shards, int64(len(sc.script)/2))
				if !reflect.DeepEqual(got.deliveries, ref.deliveries) {
					t.Fatalf("shards=%d, restored mid-run: the delivery stream differs from one range's unbroken run", shards)
				}
				if r := stampRecords(got.n); r != 0 {
					t.Fatalf("shards=%d: %d stamp records left after the run drained", shards, r)
				}
			}
		})
	}
}

// trueSource returns the attempt a delivery is of, by the node that
// injected it: the header's source if that node injected the worm
// (ids may be reused by several sources), else the only one that did
// (the header may be corrupt).
func trueSource(run stampRun, d core.Delivery) headKey {
	if _, ok := run.heads[headKey{d.Src, d.Worm}]; ok {
		return headKey{d.Src, d.Worm}
	}
	var k headKey
	n := 0
	for h := range run.heads {
		if h.worm == d.Worm {
			k, n = h, n+1
		}
	}
	if n != 1 {
		panic(fmt.Sprintf("worm %d was injected by %d nodes, none of them its header's %d", d.Worm, n, d.Src))
	}
	return k
}
