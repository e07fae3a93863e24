package sim

import (
	"crnet/internal/faults"
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/stats"
)

// E22BurstyFaults compares bursty (Gilbert-Elliott) corruption against
// i.i.d. corruption at the same long-run average rate. FCR must stay
// intact under both; the interesting question is the cost profile — a
// burst hits many flits of the same worms in a short span, concentrating
// FKILL retries, where the i.i.d. process spreads them thinly.
func E22BurstyFaults(s Scale) *stats.Table {
	t := stats.NewTable("E22: bursty (Gilbert-Elliott) vs i.i.d. corruption at equal average rate (FCR, load=0.4)",
		"scheme", "avg_rate", "avg_latency", "fkills/msg", "corrupt_deliveries", "faults_injected")
	rates := []float64{1e-4, 1e-3, 1e-2}
	const load = 0.4
	var pts []Point
	for _, rate := range rates {
		iid := s.fcrNet()
		iid.TransientRate = rate
		// Mean sojourns 900/100 traversals of each link: the bad state
		// carries the whole rate budget in 10% of each link's
		// traversals, 10x the i.i.d. intensity.
		spec := faults.EqualRateBurst(rate, 900, 100)
		burst := s.fcrNet()
		burst.Burst = &spec
		pts = append(pts,
			Point{Series: "iid", Pattern: "uniform", Load: load, MsgLen: s.MsgLen, Net: iid},
			Point{Series: "bursty", Pattern: "uniform", Load: load, MsgLen: s.MsgLen, Net: burst})
	}
	for i, m := range s.sweep("E22", pts) {
		t.AddRow(pts[i].Series, rates[i/2], m.AvgLatency, m.FKillsPerMsg, m.DeliveredCorrupt, m.TransientFaults)
	}
	return t
}

// failRepairSchedule picks n random links and returns a timeline that
// fails all of them at failAt and repairs all of them at repairAt.
func failRepairSchedule(links []faults.LinkID, n int, failAt, repairAt int64, seed uint64) *faults.Schedule {
	var events []faults.Event
	for _, down := range faults.RandomLinks(links, n, failAt, seed).Events() {
		events = append(events, down, faults.Event{Cycle: repairAt, Link: down.Link, Up: true})
	}
	return faults.NewSchedule(events)
}

// E23FailRepair runs the fail-then-repair scenario: the network runs
// clean, loses eight links mid-run, then gets them back. Latency is
// reported per phase (messages bucketed by creation cycle): it degrades
// while the links are down — minimal paths gone, misrouting engaged —
// then, after a settling window that drains the outage backlog, returns
// to baseline. The network stays connected throughout, so not a single
// message may be abandoned.
//
// The four phases are four measurement windows over one trajectory:
// every job runs the same network, fault timeline and traffic seed and
// differs only in where its window sits, so each sees the history the
// others saw up to its own window's end (failed_msgs is therefore the
// count since cycle 0, not per phase).
func E23FailRepair(s Scale) *stats.Table {
	t := stats.NewTable("E23: fail-then-repair, FCR with misrouting (load=0.1, 8 links)",
		"phase", "cycles", "avg_latency", "p95", "delivered", "failed_msgs")
	// Low enough load that the post-repair network can also drain the
	// backlog queued up during the outage — otherwise every later
	// window inherits the outage's queueing and recovery never shows.
	const load, deadLinks = 0.1, 8
	w := s.Measure / 4
	failAt, repairAt := s.Warmup+w, s.Warmup+2*w
	links := network.LinksOf(s.torus())

	// Creation-cycle windows: [warmup,failAt) baseline, [failAt,repairAt)
	// faulted, [repairAt,+w) settling (the outage backlog drains), then
	// recovered.
	phases := []string{"baseline", "faulted", "settling", "recovered"}
	ms := sweepJobs(s, "E23", len(phases), func(p int, cancel <-chan struct{}) (Metrics, error) {
		cfg := s.fcrNet()
		cfg.MisrouteAfter = 2
		cfg.MaxDetours = 4
		// The schedule's cursor is run state: one per job.
		cfg.Faults = failRepairSchedule(links, deadLinks, failAt, repairAt, harness.PointSeed(s.Seed, 2300))
		return Run(Config{
			Net:           cfg,
			Pattern:       "uniform",
			Load:          load,
			MsgLen:        s.MsgLen,
			WarmupCycles:  s.Warmup + int64(p)*w,
			MeasureCycles: w,
			Seed:          harness.PointSeed(s.Seed, 2301),
			Cancel:        cancel,
		})
	})
	for p, name := range phases {
		m := ms[p]
		t.AddRow(name, w, m.AvgLatency, m.P95Latency, m.Delivered, m.FailedMessages)
	}
	return t
}

// E24ChaosSoak is the chaos soak: FCR with misrouting under a random
// MTBF/MTTR fail-and-repair timeline over links and nodes, audited every
// step by the invariant watchdog. Like E14 it reports PASS/FAIL property
// rows — a FAIL here means the protocol (or the simulator) broke under
// chaos, and crbench exits non-zero on it.
func E24ChaosSoak(s Scale) *stats.Table {
	t := propertyTable("E24: chaos soak with invariant watchdog (FCR, load=0.3)")
	const load = 0.3
	topo := s.torus()
	horizon := s.Warmup + s.Measure
	timeline := faults.RandomTimeline(faults.TimelineConfig{
		Links:    network.LinksOf(topo),
		Nodes:    []int{3, topo.Nodes()/2 + 1},
		LinkMTBF: float64(40 * s.Measure), LinkMTTR: float64(s.Measure / 20),
		NodeMTBF: float64(2 * s.Measure), NodeMTTR: float64(s.Measure / 20),
		Start:   s.Warmup / 2,
		Horizon: horizon,
		Seed:    harness.PointSeed(s.Seed, 2400),
	})
	faultEvents := len(timeline.Events())

	cfg := s.fcrNet()
	cfg.MisrouteAfter = 2
	cfg.MaxDetours = 4
	cfg.Faults = timeline
	type outcome struct {
		Metrics
		err error
	}
	// The run's error is a property row, not a lost point: the job keeps
	// it beside the partial metrics instead of handing it to the engine.
	r := sweepJobs(s, "E24", 1, func(_ int, cancel <-chan struct{}) (outcome, error) {
		m, err := Run(Config{
			Net:           cfg,
			Pattern:       "uniform",
			Load:          load,
			MsgLen:        s.MsgLen,
			WarmupCycles:  s.Warmup,
			MeasureCycles: s.Measure,
			Seed:          harness.PointSeed(s.Seed, 2401),
			Watchdog:      &invariant.Config{},
			Cancel:        cancel,
		})
		return outcome{m, err}, nil
	})[0]
	m := r.Metrics

	health := "healthy"
	if r.err != nil {
		health = r.err.Error()
	}
	checkRow(t, "run health", health, r.err == nil, "healthy")
	checkRow(t, "invariant violations", m.Violations, m.Violations == 0, "0")
	checkRow(t, "watchdog scans", m.WatchdogScans, m.WatchdogScans > 0, "> 0 (watchdog not vacuous)")
	checkRow(t, "fault events scheduled", faultEvents, faultEvents > 0, "> 0 (chaos not vacuous)")
	checkRow(t, "delivered messages", m.Delivered, m.Delivered > 0, "> 0")
	checkRow(t, "corrupt deliveries", m.DeliveredCorrupt, m.DeliveredCorrupt == 0, "0")
	checkRow(t, "order violations", m.OrderErrors, m.OrderErrors == 0, "0")
	return t
}
