package sim

import (
	"fmt"
	"math"

	"crnet/internal/faults"
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/stats"
)

// Load-dependent reliability experiments (ROADMAP item 5): the hazard
// process couples failure intensity to live utilization, so pushing
// offered load now pushes the fault rate too. E29 charts the resulting
// availability surface and its knee; E30 soaks the graceful-degradation
// controller against the same storm with the controller off as the
// contrast arm.

// e29Hazard builds the availability-curve hazard: link failures only,
// base intensity low enough that an idle fabric rides out a run nearly
// untouched, with the load coupling supplying the drama.
func (s Scale) e29Hazard(alpha float64) *faults.HazardSpec {
	return &faults.HazardSpec{
		LinkLambda0: 6e-7,
		Alpha:       alpha,
		LinkMTTR:    float64(s.Measure / 8),
		EvalEvery:   64,
		Seed:        harness.PointSeed(s.Seed, 2900),
	}
}

// availabilityOf reduces one run to the served-traffic SLO ratio:
// messages delivered with intact payloads over every message that
// reached a final disposition — delivered, still undelivered at the
// drain bound (censored), shed by the controller, or abandoned by its
// source.
func availabilityOf(m Metrics) float64 {
	total := m.Delivered + m.Censored + m.ShedMessages + m.FailedMessages
	if total <= 0 {
		return 1
	}
	return float64(m.Delivered-m.DeliveredCorrupt) / float64(total)
}

// nines converts an availability ratio into "nines" notation
// (0.999 → 3.0), capped at 9 so a perfect short run prints finitely.
func nines(a float64) float64 {
	if a >= 1 {
		return 9
	}
	if a <= 0 {
		return 0
	}
	n := -math.Log10(1 - a)
	if n > 9 {
		n = 9
	}
	return n
}

// E29AvailabilityCurves sweeps offered load against the hazard coupling
// exponent alpha and reports the availability (nines of
// delivered-intact messages) of FCR with misrouting. With alpha = 0 the
// fault process is load-independent and availability stays flat; as
// alpha grows, load feeds failure intensity and the curve develops a
// knee — the operating point past which kill-retry plus repair can no
// longer hold the SLO. The final arm re-runs the steepest coupling with
// node failures switched on as well: a failed node silences a whole
// router (every incident link at once) instead of one channel, so the
// same event budget buys a deeper availability hit. The knee column
// marks the first load in each series whose availability falls below
// three nines.
func E29AvailabilityCurves(s Scale) *stats.Table {
	t := stats.NewTable("E29: availability vs offered load under load-coupled failures (FCR+misroute, link MTTR=measure/8)",
		"series", "offered", "fault_events", "delivered", "censored", "failed", "availability", "nines", "knee")
	// The baseline (alpha=0) holds full availability until the fabric's
	// own congestion knee; raising the coupling exponent pulls the knee
	// to lower offered loads and deepens the collapse past it. The node
	// arm couples router failures to load on top of the link process.
	nodeHazard := s.e29Hazard(8)
	nodeHazard.NodeLambda0 = 2e-7
	nodeHazard.NodeMTTR = float64(s.Measure / 8)
	series := []struct {
		label  string
		hazard *faults.HazardSpec
	}{
		{"alpha=0", s.e29Hazard(0)},
		{"alpha=4", s.e29Hazard(4)},
		{"alpha=8", s.e29Hazard(8)},
		{"alpha=8+node", nodeHazard},
	}
	var pts []Point
	for _, sr := range series {
		net := s.fcrNet()
		net.MisrouteAfter = 2
		net.MaxDetours = 4
		net.Hazard = sr.hazard
		for _, load := range s.Loads {
			pts = append(pts, Point{
				Series: sr.label, Pattern: "uniform",
				Load: load, MsgLen: s.MsgLen, Net: net,
			})
		}
	}
	ms := s.sweep("E29", pts)
	for si, sr := range series {
		kneed := false
		for li, load := range s.Loads {
			m := ms[si*len(s.Loads)+li]
			avail := availabilityOf(m)
			knee := ""
			if !kneed && avail < 0.999 {
				kneed = true
				knee = "<- knee (<3 nines)"
			}
			t.AddRow(sr.label, load, m.FaultEventsApplied, m.Delivered, m.Censored,
				m.FailedMessages, fmt.Sprintf("%.6f", avail), fmt.Sprintf("%.1f", nines(avail)), knee)
		}
	}
	return t
}

// E30DegradationSoak stress-tests the graceful-degradation controller:
// FCR with misrouting under an aggressive load-coupled hazard at high
// offered load, watchdog on, run twice — controller on vs off. The
// controller must keep the run clean (no violations, goodput floor
// held) while visibly shedding; the off arm exists as contrast and is
// expected to carry a larger undelivered backlog and worse tail
// latency. PASS/FAIL rows, like E24: a FAIL fails crbench.
func E30DegradationSoak(s Scale) *stats.Table {
	t := propertyTable("E30: degradation soak, controller on vs off (FCR+misroute, load=0.8, alpha=8)")
	const load = 0.8
	hazard := &faults.HazardSpec{
		LinkLambda0: 2e-6,
		Alpha:       8,
		LinkMTTR:    float64(s.Measure / 12),
		EvalEvery:   64,
		Seed:        harness.PointSeed(s.Seed, 3000),
	}
	net := s.fcrNet()
	net.MisrouteAfter = 2
	net.MaxDetours = 4
	net.Hazard = hazard

	// Both arms share one traffic seed so they face the same offered
	// stream; the controller is the only difference.
	arms := []*DegradeConfig{{
		LatencySLO: 8 * int64(s.MsgLen) * 4,
		Window:     256,
		FailBudget: 4,
	}, nil}
	ms := sweepJobs(s, "E30", len(arms), func(i int, cancel <-chan struct{}) (Metrics, error) {
		m, err := Run(Config{
			Net:           net,
			Pattern:       "uniform",
			Load:          load,
			MsgLen:        s.MsgLen,
			WarmupCycles:  s.Warmup,
			MeasureCycles: s.Measure,
			Seed:          harness.PointSeed(s.Seed, 3001),
			Watchdog:      &invariant.Config{},
			Degrade:       arms[i],
			Cancel:        cancel,
		})
		if err != nil {
			// An aborted arm still reports: the PASS/FAIL rows expose it.
			m.DegradeFinal = "aborted: " + err.Error()
		}
		return m, nil
	})
	on, off := ms[0], ms[1]

	checkRow(t, "on: invariant violations", on.Violations, on.Violations == 0, "0")
	checkRow(t, "on: watchdog scans", on.WatchdogScans, on.WatchdogScans > 0, "> 0 (watchdog not vacuous)")
	checkRow(t, "on: fault events", on.FaultEventsApplied, on.FaultEventsApplied > 0, "> 0 (hazard not vacuous)")
	checkRow(t, "on: controller engaged (shed)", on.ShedMessages, on.ShedMessages > 0, "> 0")
	checkRow(t, "on: delivered messages", on.Delivered, on.Delivered > 0, "> 0")
	checkRow(t, "on: corrupt deliveries", on.DeliveredCorrupt, on.DeliveredCorrupt == 0, "0")
	// Goodput floor: shedding must not cost delivered throughput. Backing
	// offered load off a storm-choked fabric should deliver at least as
	// many messages as stuffing it full does — that is the whole case for
	// graceful degradation.
	checkRow(t, "on: goodput floor", on.Delivered, on.Delivered >= off.Delivered,
		fmt.Sprintf(">= %d (controller-off delivered)", off.Delivered))
	checkRow(t, "off: fault events", off.FaultEventsApplied, off.FaultEventsApplied > 0, "> 0 (contrast not vacuous)")
	// The contrast: without shedding the same storm leaves a larger
	// undelivered backlog (censored + abandoned).
	onBacklog := on.Censored + on.FailedMessages
	offBacklog := off.Censored + off.FailedMessages
	checkRow(t, "off: backlog exceeds on-arm", fmt.Sprintf("off=%d on=%d", offBacklog, onBacklog),
		offBacklog > onBacklog, "controller-off backlog > controller-on")
	checkRow(t, "availability (on vs off)",
		fmt.Sprintf("on=%.4f off=%.4f", availabilityOf(on), availabilityOf(off)),
		availabilityOf(on) >= availabilityOf(off), "on >= off")
	checkRow(t, "on: final controller state", on.DegradeFinal, on.DegradeFinal != "", "reported")
	return t
}
