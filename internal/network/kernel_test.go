package network

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/rng"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// members appends s's members to out in walk order.
func members(s *nodeSet, out []int32) []int32 {
	for w := s.word(0); w >= 0; w = s.word(w + 1) {
		for m := s.words[w]; m != 0; m &= m - 1 {
			out = append(out, s.id(w, m))
		}
	}
	return out
}

// TestNodeSetModel holds the bitmap worklist to a sorted-list model:
// random adds (sometimes a flood), walks that drop members as they visit
// them the way the phase bodies prune, and resets must leave every walk
// visiting exactly the model's ids in ascending order. The range starts
// at a nonzero id and spans three summary words, and half the ids drawn
// sit on a word or summary-word boundary or are the range's first or
// last id.
func TestNodeSetModel(t *testing.T) {
	const lo, hi = 4000, 4000 + 2*4096 + 70
	edges := []int32{lo, lo + 1, lo + 63, lo + 64, lo + 4095, lo + 4096, lo + 4097,
		lo + 8191, lo + 8192, lo + 8256, hi - 65, hi - 64, hi - 2, hi - 1}
	r := rng.New(0x5e75)
	pick := func() int32 {
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return int32(lo + r.Intn(hi-lo))
	}
	s := newNodeSet(lo, hi)
	in := make([]bool, hi-lo)
	for round := 0; round < 2000; round++ {
		adds := r.Intn(8)
		if r.Intn(10) == 0 {
			adds = r.Intn(2 * (hi - lo))
		}
		for k := 0; k < adds; k++ {
			id := pick()
			s.add(id)
			in[id-lo] = true
		}
		if r.Intn(4) == 0 {
			// Dropping a non-member is a no-op.
			if id := pick(); !in[id-lo] {
				s.drop(id)
			}
		}
		if r.Intn(8) == 0 {
			s.reset()
			clear(in)
		}
		var want []int32
		for i, ok := range in {
			if ok {
				want = append(want, int32(lo+i))
			}
		}
		if s.n != len(want) {
			t.Fatalf("round %d: %d members counted, model has %d", round, s.n, len(want))
		}
		var got []int32
		for w := s.word(0); w >= 0; w = s.word(w + 1) {
			for m := s.words[w]; m != 0; m &= m - 1 {
				id := s.id(w, m)
				got = append(got, id)
				if r.Intn(3) == 0 {
					s.drop(id)
					in[id-lo] = false
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: walk visited %v, want %v", round, got, want)
		}
		if got := members(&s, nil); len(got) != s.n {
			t.Fatalf("round %d: after the dropping walk %d members counted, a walk finds %d", round, s.n, len(got))
		}
	}
	s.reset()
	for _, id := range []int32{hi - 1, lo} {
		s.add(id)
	}
	if got := members(&s, nil); !slices.Equal(got, []int32{lo, hi - 1}) {
		t.Fatalf("walk of the range's ends = %v", got)
	}
	if w := s.word(len(s.words)); w != -1 {
		t.Fatalf("word past the range = %d, want -1", w)
	}
}

// kernelSnapshot is everything observable about a run that the
// active-set scheduler must reproduce exactly: the per-cycle delivery
// stream and every counter the stats layer exposes.
type kernelSnapshot struct {
	deliveries []core.Delivery
	perCycle   []int // deliveries drained after each Step
	cycle      int64
	inj        core.InjStats
	recv       core.RecvStats
	flits      int64 // FlitsMoved
	transient  int64
	dropped    int64
}

func runKernel(n *Network, gen *traffic.Generator, trafficCycles, maxCycles int64) kernelSnapshot {
	return runKernelWith(n.Step, n, gen, trafficCycles, maxCycles)
}

// runKernelWith is runKernel with the stepper chosen by the caller.
func runKernelWith(step func(), n *Network, gen *traffic.Generator, trafficCycles, maxCycles int64) kernelSnapshot {
	var snap kernelSnapshot
	topo := n.Topology()
	for c := int64(0); c < maxCycles; c++ {
		if c < trafficCycles {
			for node := 0; node < topo.Nodes(); node++ {
				if m, ok := gen.Tick(topology.NodeID(node), c); ok {
					n.SubmitMessage(m)
				}
			}
		}
		step()
		ds := n.DrainDeliveries()
		snap.perCycle = append(snap.perCycle, len(ds))
		snap.deliveries = append(snap.deliveries, ds...)
		if c >= trafficCycles && n.QueuedMessages() == 0 && n.PendingWorms() == 0 && !anyBusy(n) {
			break
		}
	}
	snap.cycle = n.Cycle()
	snap.inj = n.InjectorStats()
	snap.recv = n.ReceiverStats()
	snap.flits = n.RouterStats().FlitsMoved
	snap.transient = n.TransientFaults()
	snap.dropped = n.flitsDropped
	return snap
}

// TestActiveSetMatchesBruteForce is the scheduling soak: the worklist
// stepper and the scan-everything reference stepper (reference_test.go)
// must produce byte-identical runs — same deliveries in the same cycles,
// same cycle counts, same stats — across random small topologies with
// transient corruption, kill-heavy load, and permanent fail/repair
// timelines.
func TestActiveSetMatchesBruteForce(t *testing.T) {
	r := rng.New(0xAC71BE)
	const configs = 10
	for i := 0; i < configs; i++ {
		cfg, load, msgLen := randomConfig(r, uint64(i)+7000)
		// Always corrupt a little and always run a fail/repair timeline:
		// the fault paths are where activation bookkeeping is subtlest.
		cfg.TransientRate = 2e-3
		timeline := faults.TimelineConfig{
			Links:    LinksOf(cfg.Topo),
			LinkMTBF: 900, LinkMTTR: 60,
			Start: 50, Horizon: 2000,
			Seed: uint64(i) * 77,
		}
		name := fmt.Sprintf("cfg%02d_%s_%s", i, cfg.Topo.Name(), cfg.Protocol)
		t.Run(name, func(t *testing.T) {
			run := func(brute bool) kernelSnapshot {
				c := cfg
				c.Faults = faults.RandomTimeline(timeline)
				n := New(c)
				step := n.Step
				if brute {
					step = func() { stepReference(n) }
				}
				gen := traffic.NewGenerator(c.Topo, traffic.Uniform{Nodes: c.Topo.Nodes()}, load, msgLen, c.Seed+5)
				return runKernelWith(step, n, gen, 1500, 1500*60)
			}
			active, brute := run(false), run(true)
			if !reflect.DeepEqual(active, brute) {
				t.Errorf("active-set run diverged from brute-force reference:\nactive: cycle=%d deliveries=%d inj=%+v flits=%d\nbrute:  cycle=%d deliveries=%d inj=%+v flits=%d",
					active.cycle, len(active.deliveries), active.inj, active.flits,
					brute.cycle, len(brute.deliveries), brute.inj, brute.flits)
			}
		})
	}
}

// nextNode sends every message to the source's successor id — on a torus
// the +x neighbour — so offered load never queues behind a kill storm.
type nextNode struct{ nodes int }

func (nextNode) Name() string { return "next-node" }

func (p nextNode) Dest(src topology.NodeID, _ *rng.Source) topology.NodeID {
	return topology.NodeID((int(src) + 1) % p.nodes)
}

// TestSteadyStateZeroAlloc is the allocation gate for the cycle kernel:
// after warmup, stepping a loaded network — traffic generation,
// submission, stepping, draining — must not allocate. The gate holds
// for every buffer organization: the shared organizations' window
// grants, release top-ups and advertisement events must all ride
// preallocated storage.
//
// The chaos case is FCR under transient corruption, with a hazard
// process failing and repairing links and routers inside the gated
// window and outputs selected by downstream credit. The tear-down paths
// are held to zero too: receiver FKILLs, source kills and
// retransmission, dead-link sweeps, hazard evaluation and repair. Each
// case names the counters its window must advance, so a gate that
// stopped reaching a path fails rather than passing vacuously.
//
// The count is exact over one 500-cycle window. AllocsPerRun rounds its
// per-run average down, so gated per cycle an allocation per FKILL (one
// every 20 cycles here) would read 0, and so would the queue growth of
// an 8x8 torus offered uniform 0.3, which is past saturation. A steady
// state has to exist to be gated, so every case runs below saturation.
// Its warmup first offers twice the gated load, which grows every
// queue, pool and receiver watermark list past what the gated load
// needs, then settles at the gated load until the backlog has drained
// (DESIGN.md §5). The 64x64 case holds the same bodies to zero on a
// working set 64 times the 8x8 one, on next-node traffic, and the
// two-range case holds the fork and its barriers to zero.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const (
		kills = iota
		fkills
		hazardFailures
		hazardRepairs
		nCounters
	)
	counterNames := [nCounters]string{"kills", "fkills", "hazard failures", "hazard repairs"}
	type gateCase struct {
		name    string
		k       int
		org     router.BufferOrg
		load    float64 // the gated load; warmup first offers twice it
		settle  int     // cycles at the gated load before the window
		pattern func(nodes int) traffic.Pattern
		chaos   bool
		moved   []int // counters the gated window must advance
		shards  int
	}
	uniform := func(nodes int) traffic.Pattern { return traffic.Uniform{Nodes: nodes} }
	cases := []gateCase{
		{"fifo", 8, router.OrgStaticFIFO, 0.1, 8500, uniform, false, []int{kills}, 1},
		{"damq", 8, router.OrgDAMQ, 0.1, 8500, uniform, false, []int{kills}, 1},
		{"shared", 8, router.OrgCreditShared, 0.07, 8500, uniform, false, []int{kills}, 1},
		{"k64", 64, router.OrgStaticFIFO, 0.3, 1000, func(nodes int) traffic.Pattern { return nextNode{nodes} }, false, nil, 1},
		{"fcr-chaos", 8, router.OrgStaticFIFO, 0.05, 8500, uniform, true, []int{kills, fkills, hazardFailures, hazardRepairs}, 1},
		{"fifo-shards2", 8, router.OrgStaticFIFO, 0.1, 8500, uniform, false, []int{kills}, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.k > 8 && testing.Short() {
				t.Skip("64x64 case is not part of the short suite")
			}
			topo := topology.NewTorus(tc.k, 2)
			cfg := Config{
				Topo:     topo,
				Alg:      routing.MinimalAdaptive{},
				Protocol: core.CR,
				BufOrg:   tc.org,
				Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
				Shards:   tc.shards,
				Seed:     1,
			}
			if tc.chaos {
				cfg.Protocol = core.FCR
				cfg.Select = router.SelectLeastLoaded
				cfg.TransientRate = 2e-3
				cfg.Hazard = &faults.HazardSpec{LinkLambda0: 2e-5, NodeLambda0: 2e-5, Alpha: 4,
					LinkMTTR: 100, NodeMTTR: 100, EvalEvery: 32, Seed: 21}
			}
			n := New(cfg)
			gen := traffic.NewGenerator(topo, tc.pattern(topo.Nodes()), 2*tc.load, 8, 1)
			cycle := int64(0)
			step := func() {
				for node := 0; node < topo.Nodes(); node++ {
					if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
						n.SubmitMessage(m)
					}
				}
				n.Step()
				n.DrainDeliveries()
				cycle++
			}
			counters := func() [nCounters]int64 {
				is := n.InjectorStats()
				fails, repairs := n.HazardCounts()
				return [nCounters]int64{is.Kills, is.FKills, fails, repairs}
			}
			for i := 0; i < 3000; i++ {
				step()
			}
			gen = traffic.NewGenerator(topo, tc.pattern(topo.Nodes()), tc.load, 8, 2)
			for i := 0; i < tc.settle; i++ {
				step()
			}
			// AllocsPerRun's unmeasured first call is the last of the settling.
			var before, after [nCounters]int64
			window := func() {
				before = counters()
				for i := 0; i < 500; i++ {
					step()
				}
				after = counters()
			}
			if allocs := testing.AllocsPerRun(1, window); allocs > 0 {
				t.Fatalf("%s: %.0f allocations in 500 loaded cycles, want 0", tc.name, allocs)
			}
			for _, c := range tc.moved {
				if after[c] == before[c] {
					t.Errorf("%s: %s did not move in the gated window (%d); the gate does not reach that path",
						tc.name, counterNames[c], after[c])
				}
			}
		})
	}
}
