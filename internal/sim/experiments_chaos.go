package sim

import (
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/stats"
	"crnet/internal/topology"
	"crnet/internal/traffic"
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
		// Mean sojourns 900/100: the bad state carries the whole rate
		// budget in 10% of the cycles, 10x the i.i.d. intensity.
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
func E23FailRepair(s Scale) *stats.Table {
	t := stats.NewTable("E23: fail-then-repair, FCR with misrouting (load=0.1, 8 links)",
		"phase", "cycles", "avg_latency", "p95", "delivered", "failed_msgs")
	// Low enough load that the post-repair network can also drain the
	// backlog queued up during the outage — otherwise every later
	// window inherits the outage's queueing and recovery never shows.
	const load, deadLinks = 0.1, 8
	w := s.Measure / 4
	failAt, repairAt := s.Warmup+w, s.Warmup+2*w

	topo := s.torus()
	cfg := s.fcrNet()
	cfg.MisrouteAfter = 2
	cfg.MaxDetours = 4
	cfg.Faults = failRepairSchedule(network.LinksOf(topo), deadLinks, failAt, repairAt,
		harness.PointSeed(s.Seed, 2300))

	// Creation-cycle phase boundaries: [warmup,failAt) clean,
	// [failAt,repairAt) faulted, [repairAt,settleEnd) settling (the
	// outage backlog drains), [settleEnd,injEnd) recovered.
	settleEnd := s.Warmup + 3*w
	injEnd := s.Warmup + 4*w
	bounds := [4]int64{failAt, repairAt, settleEnd, injEnd}
	phaseOf := func(created int64) int {
		if created < s.Warmup {
			return -1 // warmup traffic: not measured
		}
		for p, b := range bounds {
			if created < b {
				return p
			}
		}
		return len(bounds) - 1
	}
	const phases = 4
	type phaseRow struct {
		lat                    float64
		p95, delivered, failed int64
	}
	// The per-phase bucketing needs its own cycle loop, so the whole run
	// is one job of the sweep engine rather than a Point.
	rows := sweepJobs(s, "E23", 1, func(int, <-chan struct{}) (out [phases]phaseRow, err error) {
		net := network.New(cfg)
		pattern, err := traffic.ByName("uniform", topo)
		if err != nil {
			return out, err
		}
		gen := traffic.NewGeneratorLengths(topo, pattern, load, traffic.FixedLength(s.MsgLen),
			harness.PointSeed(s.Seed, 2301))
		var (
			window    = make(map[flit.MessageID]int64)
			pending   int // measured messages not yet delivered
			lat       [phases]stats.Welford
			hist      [phases]*stats.Histogram
			delivered [phases]int64
			failedAt  [phases + 1]int64 // injector Failed counter at warmup end + each phase boundary
		)
		for p := range hist {
			hist[p] = stats.NewHistogram(16, 4096)
		}
		drainEnd := injEnd + 4*s.Measure
		for cycle := int64(0); cycle < drainEnd; cycle++ {
			if cycle == s.Warmup {
				failedAt[0] = net.InjectorStats().Failed
			}
			for p, b := range bounds {
				if cycle == b {
					failedAt[p+1] = net.InjectorStats().Failed
				}
			}
			if cycle < injEnd {
				for node := 0; node < topo.Nodes(); node++ {
					if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
						if phaseOf(m.CreateTime) >= 0 {
							window[m.ID] = m.CreateTime
							pending++
						}
						net.SubmitMessage(m)
					}
				}
			}
			net.Step()
			for _, d := range net.DrainDeliveries() {
				created, ok := window[d.Msg]
				if !ok {
					continue
				}
				delete(window, d.Msg)
				pending--
				p := phaseOf(created)
				delivered[p]++
				lat[p].Add(float64(d.Time - created))
				hist[p].Add(d.Time - created)
			}
			if cycle >= injEnd && pending == 0 {
				break
			}
		}
		// Failures during the drain (if any) attribute to the last phase.
		failedAt[phases] = net.InjectorStats().Failed
		for p := range out {
			out[p] = phaseRow{lat[p].Mean(), hist[p].Percentile(0.95), delivered[p], failedAt[p+1] - failedAt[p]}
		}
		return out, nil
	})[0]

	for p, name := range [phases]string{"baseline", "faulted", "settling", "recovered"} {
		r := rows[p]
		t.AddRow(name, w, r.lat, r.p95, r.delivered, r.failed)
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
