package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"crnet/internal/core"
	"crnet/internal/harness"
	"crnet/internal/network"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/topology"
)

// sweep8 is an explicit grid rather than one of sim.Experiments, so the
// yardstick does not move when the experiment drivers are rewritten.

var sweepLoads = []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9}

const sweepWorkers = 2

// sweepSeries are the five network configurations of the grid; each is
// crossed with sweepLoads.
var sweepSeries = []struct {
	name string
	// unordered marks plain wormhole over two lanes, where a successor
	// may overtake: per-pair order is a guarantee of CR and FCR only.
	unordered bool
	net       func(topo topology.Topology, seed uint64) network.Config
}{
	{name: "CR", net: func(t topology.Topology, s uint64) network.Config { return crConfig(t, 1, s) }},
	{name: "DOR", unordered: true, net: func(t topology.Topology, s uint64) network.Config {
		return network.Config{Topo: t, Alg: routing.DOR{Lanes: 2}, Protocol: core.Plain, BufDepth: 2}
	}},
	{name: "FCR", net: func(t topology.Topology, s uint64) network.Config {
		c := crConfig(t, 1, s)
		c.Protocol = core.FCR
		c.TransientRate = 1e-3
		return c
	}},
	{name: "CR/damq", net: func(t topology.Topology, s uint64) network.Config {
		c := crConfig(t, 2, s)
		c.BufOrg = router.OrgDAMQ
		return c
	}},
	{name: "CR/shared", net: func(t topology.Topology, s uint64) network.Config {
		c := crConfig(t, 2, s)
		c.BufOrg = router.OrgCreditShared
		return c
	}},
}

// sweepPoint is one grid point's reduction. Only point 0 keeps its
// network (for the checkpoint measurement); the rest are dropped as
// their point completes, as crbench does.
type sweepPoint struct {
	m          sim.Metrics
	net        *network.Network
	cycles     int64
	linkUtil   float64
	start, end time.Time
}

type sweepGrid struct {
	topo    *topology.Grid
	measure int64
}

func (g sweepGrid) points() int { return len(sweepSeries) * len(sweepLoads) }

// config returns grid point i's simulation config; every call builds a
// fresh network.Config.
func (g sweepGrid) config(i int, seed uint64) sim.Config {
	series, load := sweepSeries[i/len(sweepLoads)], sweepLoads[i%len(sweepLoads)]
	net := series.net(g.topo, harness.PointSeed(seed, i))
	return sim.Config{
		Net:           net,
		Pattern:       "uniform",
		Load:          load,
		MsgLen:        msgLen,
		WarmupCycles:  1500,
		MeasureCycles: g.measure,
		Seed:          harness.PointSeed(seed, i),
	}
}

func runSweep8(r *run) {
	grid := setup(r, 5, func(span int) sweepGrid {
		g := sweepGrid{measure: r.scaled(640, 400)}
		r.set("topology.build_ms", ms(r.span("topology.build", span, func(int) {
			g.topo = topology.NewTorus(8, 2)
		})))
		// Warm the process up on one point below saturation: code paths,
		// allocator size classes and the scheduler.
		r.span("warmup", span, func(int) {
			cfg := g.config(1, r.opt.seed)
			cfg.WarmupCycles, cfg.MeasureCycles = 500, 6000
			if r.opt.mini {
				cfg.MeasureCycles = 300
			}
			_, err := sim.Run(cfg)
			r.checkErr("sweep8 warm-up point", err)
		})
		return g
	})

	n := grid.points()
	var points []sweepPoint
	var errs []harness.PointError
	reg := r.timedRegion(func(span int) float64 {
		opts := harness.SafeOptions{Options: harness.Options{Workers: sweepWorkers}}
		points, errs = harness.SweepSafe(n, opts, func(i int, cancel <-chan struct{}) (sweepPoint, error) {
			p := sweepPoint{start: time.Now()}
			cfg := grid.config(i, r.opt.seed)
			cfg.Cancel = cancel
			m, net, err := sim.RunWithNetwork(cfg)
			if err != nil {
				return p, err
			}
			p.m, p.cycles = m, net.Cycle()
			p.linkUtil = ratio(float64(net.LinkFlits()), float64(net.LinkCount())*float64(net.Cycle()))
			if i == 0 {
				p.net = net
			}
			p.end = time.Now()
			r.tr.add(fmt.Sprintf("sim.point[%s@%.1f]", sweepSeries[i/len(sweepLoads)].name, cfg.Load), span, p.start, p.end, 1)
			return p, nil
		})
		var nodeCycles float64
		for _, p := range points {
			nodeCycles += float64(grid.topo.Nodes()) * float64(p.cycles)
		}
		return nodeCycles
	})
	r.tr.clockReads += 2 * int64(n)

	r.set("harness.point_errors", float64(len(errs)))
	for _, e := range errs {
		r.check(false, "sweep8 point %d: %s: %s", e.Index, e.Kind, e.Err)
	}
	if len(errs) > 0 {
		return
	}

	var pointMS, nsPerNodeCycle []float64
	var busy time.Duration
	var delivered, censored, corrupt, orderErrs, lateFKills, abandoned int64
	var kills, retries, thpt, lat, p99, util, pad float64
	hash := uint64(fnvOffset64)
	for i, p := range points {
		d := p.end.Sub(p.start)
		busy += d
		pointMS = append(pointMS, ms(d))
		nsPerNodeCycle = append(nsPerNodeCycle, ratio(float64(d), float64(grid.topo.Nodes())*float64(p.cycles)))
		m := p.m
		delivered += m.Delivered
		censored += m.Censored
		corrupt += m.DeliveredCorrupt
		if !sweepSeries[i/len(sweepLoads)].unordered {
			orderErrs += m.OrderErrors
		}
		lateFKills += m.LateFKills
		abandoned += m.FailedMessages
		kills += m.KillsPerMsg * float64(m.Delivered)
		retries += m.RetriesPerMsg * float64(m.Delivered)
		thpt += m.Throughput
		lat += m.AvgLatency * float64(m.Delivered)
		p99 = math.Max(p99, float64(m.P99Latency))
		util += p.linkUtil
		pad += m.PadOverhead
		for _, v := range []uint64{uint64(m.Delivered), uint64(m.Censored), uint64(m.P50Latency), uint64(m.P99Latency),
			uint64(m.MaxLatency), math.Float64bits(m.Throughput), math.Float64bits(m.AvgLatency), uint64(p.cycles)} {
			hash = (hash ^ v) * fnvPrime64
		}
		if sweepLoads[i%len(sweepLoads)] == 0.1 {
			r.check(m.Censored == 0, "sweep8 point %d (load 0.1) censored %d messages", i, m.Censored)
		}
	}
	r.check(corrupt == 0, "sweep8: %d corrupt deliveries", corrupt)
	r.check(orderErrs == 0, "sweep8: %d order errors", orderErrs)
	r.check(lateFKills == 0, "sweep8: %d late FKILLs", lateFKills)
	r.attempted = delivered + abandoned
	r.wrong = corrupt + orderErrs
	r.refused = abandoned

	np, del := float64(n), float64(delivered)
	r.set("harness.point_ms_p50", quantile(pointMS, 0.5))
	r.set("harness.point_ms_max", quantile(pointMS, 1))
	r.set("harness.worker_busy_share", ratio(busy.Seconds(), sweepWorkers*reg.Wall))
	r.set("sim.point_ns_per_node_cycle_p50", quantile(nsPerNodeCycle, 0.5))
	r.set("sim.point_ns_per_node_cycle_max", quantile(nsPerNodeCycle, 1))
	r.set("core.kills_per_msg", ratio(kills, del))
	r.set("core.retries_per_msg", ratio(retries, del))
	r.set("core.pad_overhead", pad/np)
	r.set("core.delivered_per_attempt", ratio(del, del+retries))
	r.set("core.abandoned", float64(abandoned))
	r.set("model.throughput_flits_node_cycle", thpt/np)
	r.set("model.avg_latency_cycles", ratio(lat, del))
	r.set("model.p99_latency_cycles", p99)
	r.set("model.link_util", util/np)
	r.set("model.delivered_share", ratio(del, float64(delivered+censored)))
	r.set("model.fingerprint", fold32(hash))
	if !r.opt.mini {
		// Regime: half the grid is past saturation, so a healthy share of
		// window messages is censored, but the links must be carrying load.
		share, lu := r.m["model.delivered_share"], r.m["model.link_util"]
		r.check(share >= 0.5 && share <= 0.99, "sweep8 delivered share %.3f outside [0.5, 0.99]", share)
		r.check(lu >= 0.15, "sweep8 mean link utilization %.3f below 0.15", lu)
	}

	net0 := points[0].net
	points = nil
	runtime.GC()
	save, load := r.checkpoint(networkCheckpoint{net: net0, build: func() *network.Network {
		return network.New(grid.config(0, r.opt.seed).Net)
	}})
	r.set("network.savestate_ms", save)
	r.set("network.loadstate_ms", load)
	r.check(net0.Health() == nil, "sweep8 point 0 unhealthy: %v", net0.Health())
	r.checkErr("sweep8 point 0 flit ledger", net0.Ledger().Check())
}
