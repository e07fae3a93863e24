package main

import (
	"time"

	"crnet/internal/core"
	"crnet/internal/harness"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Seed streams: every stochastic input derives from -seed through
// harness.PointSeed with one of these indices (sweep8 uses 0..29 for
// its grid points, so the named streams start above them).
const (
	seedTraffic = 100 + iota
	seedNetwork
	seedHazard
	seedPlacement
)

// netLoopSpec describes a workload that drives one network through the
// benchmark's own cycle loop.
type netLoopSpec struct {
	k      int // torus radix
	netCfg func(topo topology.Topology) network.Config
	source func(g *topology.Grid) source
	warmup int64
	timed  int64
	// drainBound, when positive, follows the timed injection with
	// injection-free cycles until the network is empty or the bound is
	// hit; they are part of the timed region.
	drainBound int64
	setups     int
}

// netLoopState is the product of one set-up.
type netLoopState struct {
	grid *topology.Grid
	lp   *loop
}

// networkCheckpoint adapts a network to checkpointable.
type networkCheckpoint struct {
	net   *network.Network
	build func() *network.Network
}

func saveNetwork(n *network.Network) []byte {
	var e snapshot.Encoder
	n.SaveState(&e)
	return e.Bytes()
}

func (c networkCheckpoint) save() []byte { return saveNetwork(c.net) }
func (c networkCheckpoint) cycle() int64 { return c.net.Cycle() }
func (c networkCheckpoint) fresh() (func([]byte) error, func() []byte) {
	n := c.build()
	load := func(payload []byte) error {
		d := snapshot.NewDecoder(payload)
		if err := n.LoadState(d); err != nil {
			return err
		}
		return d.Finish()
	}
	return load, func() []byte { return saveNetwork(n) }
}

// counters are the network's monotone statistics the loop workloads
// difference across the timed region.
type counters struct {
	inj       core.InjStats
	linkFlits int64
}

func readCounters(n *network.Network) counters {
	return counters{inj: n.InjectorStats(), linkFlits: n.LinkFlits()}
}

// setCounterMetrics derives the protocol metrics and the link
// utilisation from the counters' change over cycles simulated cycles in
// which delivered messages arrived. It returns the flit hops made.
func (r *run) setCounterMetrics(n *network.Network, before, after counters, delivered, cycles float64) (hops float64) {
	retries := float64(after.inj.Retries - before.inj.Retries)
	r.set("core.kills_per_msg", ratio(float64(after.inj.Kills-before.inj.Kills), delivered))
	r.set("core.retries_per_msg", ratio(retries, delivered))
	r.set("core.pad_overhead", ratio(float64(after.inj.PadFlits-before.inj.PadFlits), float64(after.inj.DataFlits-before.inj.DataFlits)))
	r.set("core.delivered_per_attempt", ratio(delivered, delivered+retries))
	r.set("core.abandoned", float64(after.inj.Failed-before.inj.Failed))
	hops = float64(after.linkFlits - before.linkFlits)
	r.set("model.link_util", ratio(hops, float64(n.LinkCount())*cycles))
	return hops
}

// idle reports whether nothing is queued or in flight.
func idle(n *network.Network) bool {
	return n.PendingWorms() == 0 && n.QueuedMessages() == 0 && n.InFlightFlits() == 0
}

// runNetLoop executes a loop workload end to end and returns the state
// for workload-specific checks.
func runNetLoop(r *run, spec netLoopSpec) *netLoopState {
	st := setup(r, spec.setups, func(span int) *netLoopState {
		st := &netLoopState{}
		r.set("topology.build_ms", ms(r.span("topology.build", span, func(int) {
			st.grid = topology.NewTorus(spec.k, 2)
		})))
		st.lp = &loop{obs: newObserver()}
		r.set("network.new_ms", ms(r.span("network.new", span, func(int) {
			st.lp.net = network.New(spec.netCfg(st.grid))
		})))
		r.span("traffic.new", span, func(int) { st.lp.src = spec.source(st.grid) })
		warm := r.span("warmup", span, func(int) {
			for i := int64(0); i < spec.warmup; i++ {
				st.lp.cycle(true)
			}
		})
		r.set("network.warmup_us_per_cycle", ratio(float64(warm)/1e3, float64(spec.warmup)))
		return st
	})
	lp := st.lp
	nodes := float64(st.grid.Nodes())

	// The warm-up's deliveries are not operations of the timed region.
	deliveredBefore, submittedBefore := lp.obs.delivered, lp.submitted
	lp.obs = newObserver()
	if r.opt.traced {
		lp.rec = newCycleRec(spec.timed + spec.drainBound)
	}
	before := readCounters(lp.net)
	startCycle := lp.net.Cycle()
	undelivered := int64(0)
	reg := r.timedRegion(func(span int) float64 {
		lp.runCycles(&r.tr, span, spec.timed, true)
		if spec.drainBound > 0 {
			start := time.Now()
			id := r.tr.open("drain", span, start)
			for i := int64(0); i < spec.drainBound && !idle(lp.net); i += chunkCycles {
				lp.runCycles(&r.tr, id, chunkCycles, false)
			}
			r.tr.close(id, time.Now())
			undelivered = lp.submitted - (deliveredBefore + lp.obs.delivered)
		}
		return nodes * float64(lp.net.Cycle()-startCycle)
	})
	after := readCounters(lp.net)
	cycles := float64(lp.net.Cycle() - startCycle)
	obs := lp.obs

	r.attempted = obs.delivered + undelivered
	r.wrong = obs.corrupt + undelivered
	r.set("network.allocs_per_kcycle", ratio(float64(reg.Mallocs), cycles/1000))
	r.set("network.ns_per_node_cycle", ratio(reg.Wall*1e9, nodes*cycles))
	delivered := float64(obs.delivered)
	hops := r.setCounterMetrics(lp.net, before, after, delivered, cycles)
	r.set("model.throughput_flits_node_cycle", ratio(float64(obs.dataFlits), nodes*cycles))
	r.set("model.avg_latency_cycles", ratio(float64(obs.latSum), delivered))
	r.set("model.p99_latency_cycles", quantile32(obs.lats, 0.99))
	submitted := float64(lp.submitted - submittedBefore)
	r.set("model.delivered_share", ratio(delivered, submitted))
	r.set("model.fingerprint", fold32(obs.hash))

	if rec := lp.rec; rec != nil {
		r.tr.clockReads += clockReadsPerCycle * int64(len(rec.step))
		wallNS := reg.Wall * 1e9
		stepNS := sumNS(rec.step)
		r.set("network.step_us_p50", nsQuantileUS(rec.step, 0.50))
		r.set("network.step_us_p99", nsQuantileUS(rec.step, 0.99))
		r.set("network.step_busy_share", ratio(stepNS, wallNS))
		r.set("network.ns_per_flit_hop", ratio(stepNS, hops))
		r.set("network.submit_ns_per_msg", ratio(sumNS(rec.submit), submitted))
		r.set("network.drain_busy_share", ratio(sumNS(rec.drain), wallNS))
		r.set("traffic.ns_per_tick", ratio(sumNS(rec.tick), float64(spec.timed)*float64(lp.src.ticks())))
		r.set("traffic.tick_busy_share", ratio(sumNS(rec.tick), wallNS))
	}

	save, load := r.checkpoint(networkCheckpoint{net: lp.net, build: func() *network.Network {
		return network.New(spec.netCfg(st.grid))
	}})
	r.set("network.savestate_ms", save)
	r.set("network.loadstate_ms", load)

	r.check(lp.net.Health() == nil, "network unhealthy: %v", lp.net.Health())
	r.checkErr("flit ledger", lp.net.Ledger().Check())
	rs := lp.net.ReceiverStats()
	r.check(rs.OrderErrors == 0, "%d order errors", rs.OrderErrors)
	r.check(after.inj.LateFKills == 0, "%d late FKILLs", after.inj.LateFKills)
	r.check(obs.corrupt == 0, "%d corrupt deliveries", obs.corrupt)
	r.wrong += rs.OrderErrors
	return st
}

// crConfig is the canonical CR network of the paper's simulations: fully
// adaptive minimal routing, 2-flit buffers, exponential backoff.
func crConfig(topo topology.Topology, vcs int, seed uint64) network.Config {
	return network.Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		VCs:      vcs,
		BufDepth: 2,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     harness.PointSeed(seed, seedNetwork),
	}
}

const msgLen = 16

func uniformAt(load float64, seed uint64) func(*topology.Grid) source {
	return func(g *topology.Grid) source {
		gen := traffic.NewGenerator(g, traffic.Uniform{Nodes: g.Nodes()}, load, msgLen, harness.PointSeed(seed, seedTraffic))
		return &uniformSource{gen: gen, nodes: g.Nodes()}
	}
}

// runSat16: offered 0.2 of capacity is about 1.2x the saturation point of
// 1-VC CR on 16x16, so the queues are full and the kernel never idles,
// yet most offered traffic is still delivered.
func runSat16(r *run) {
	spec := netLoopSpec{
		k:      16,
		netCfg: func(t topology.Topology) network.Config { return crConfig(t, 1, r.opt.seed) },
		source: uniformAt(0.2, r.opt.seed),
		warmup: 2000,
		timed:  r.scaled(9000, 600),
		setups: 5,
	}
	if r.opt.mini {
		spec.k, spec.warmup = 8, 200
	}
	runNetLoop(r, spec)
	if !r.opt.mini {
		r.check(r.m["model.delivered_share"] >= 0.7, "sat16 delivered only %.3f of offered (< 0.7)", r.m["model.delivered_share"])
		r.check(r.m["model.link_util"] >= 0.15, "sat16 link utilization %.3f is not saturated (< 0.15)", r.m["model.link_util"])
		r.check(r.m["core.kills_per_msg"] > 0.05, "sat16 kills per message %.3f: not past saturation", r.m["core.kills_per_msg"])
	}
}

// runSat64: 2 VCs at offered 0.06, just past the knee, on the 2-shard
// kernel.
func runSat64(r *run) {
	k, shards := 64, 2
	if r.opt.mini {
		k = 16
	}
	cfg := func(shards int) func(topology.Topology) network.Config {
		return func(t topology.Topology) network.Config {
			c := crConfig(t, 2, r.opt.seed)
			c.Shards = shards
			return c
		}
	}
	spec := netLoopSpec{
		k:      k,
		netCfg: cfg(shards),
		source: uniformAt(0.06, r.opt.seed),
		warmup: 1000,
		timed:  r.scaled(400, 300),
		setups: 3,
	}
	if r.opt.mini {
		spec.warmup = 100
	}
	st := runNetLoop(r, spec)
	if !r.opt.mini {
		r.check(r.m["model.link_util"] >= 0.2, "sat64-shard2 link utilization %.3f is below its knee (< 0.2)", r.m["model.link_util"])
	}

	// The sharded kernel must reproduce the serial kernel's delivery
	// stream; 256 cycles from cycle zero, outside the timed region.
	r.span("checks.shard-vs-serial", -1, func(int) {
		var prints [2]uint64
		for i, sh := range []int{1, shards} {
			lp := &loop{net: network.New(cfg(sh)(st.grid)), src: spec.source(st.grid), obs: newObserver()}
			for c := 0; c < 256; c++ {
				lp.cycle(true)
			}
			prints[i] = lp.obs.hash ^ uint64(lp.obs.delivered)
		}
		r.check(prints[0] == prints[1], "sharded kernel diverged from serial in the first 256 cycles (%016x vs %016x)", prints[1], prints[0])
	})
}

// runSparse512: a 512x512 fabric of which only 64 seeded 8x8
// neighbourhoods (4096 nodes) ever carry traffic.
func runSparse512(r *run) {
	const hoods, side, p = 64, 8, 0.003
	k := 512
	if r.opt.mini {
		k = 64
	}
	var src *sparseSource
	spec := netLoopSpec{
		k:      k,
		netCfg: func(t topology.Topology) network.Config { return crConfig(t, 1, r.opt.seed) },
		source: func(g *topology.Grid) source {
			src = newSparseSource(g, hoods, side, p, harness.PointSeed(r.opt.seed, seedPlacement))
			return src
		},
		warmup:     500,
		timed:      r.scaled(1000, 300),
		drainBound: 20000,
		setups:     3,
	}
	if r.opt.mini {
		spec.warmup = 100
	}
	st := runNetLoop(r, spec)
	r.check(idle(st.lp.net), "sparse512 did not drain to empty within %d cycles", spec.drainBound)
	r.check(src.submitters() <= hoods*side*side, "sparse512: %d nodes submitted (> %d)", src.submitters(), hoods*side*side)
}
