package sim

import (
	"fmt"

	"crnet/internal/faults"
	"crnet/internal/harness"
	"crnet/internal/network"
	"crnet/internal/stats"
)

// E8TransientFaults reproduces the paper's FCR evaluation under
// transient faults: per-flit-hop corruption rates from 0 to 1e-2. FCR
// must deliver every message intact (zero corrupt deliveries, zero late
// FKILLs); latency and FKILL-retry rates grow with the fault rate. The
// unprotected CR network at the same rates is shown for contrast — it
// silently delivers corrupted data.
func E8TransientFaults(s Scale) *stats.Table {
	t := stats.NewTable("E8: transient faults, FCR vs unprotected CR (load=0.4)",
		"scheme", "fault_rate", "avg_latency", "fkills/msg", "corrupt_deliveries", "late_fkills")
	const load = 0.4
	var pts []Point
	for _, sc := range []struct {
		name string
		net  network.Config
	}{{"FCR", s.fcrNet()}, {"CR", s.crNet()}} {
		for _, rate := range []float64{0, 1e-5, 1e-4, 1e-3, 1e-2} {
			sc.net.TransientRate = rate
			pts = append(pts, s.point(sc.name, load, sc.net))
		}
	}
	for i, m := range s.sweep("E8", pts) {
		t.AddRow(pts[i].Series, pts[i].Net.TransientRate, m.AvgLatency, m.FKillsPerMsg, m.DeliveredCorrupt, m.LateFKills)
	}
	return t
}

// E9PermanentFaults evaluates FCR against permanent link failures: n
// random links die at the end of warmup; messages reroute adaptively and
// misroute when minimal paths are gone. Reported: latency inflation,
// misroute usage, messages abandoned (should be zero while the network
// stays connected).
func E9PermanentFaults(s Scale) *stats.Table {
	t := stats.NewTable("E9: permanent link faults under FCR (load=0.3)",
		"dead_links", "thpt(flits/node/cyc)", "avg_latency", "p95", "misroutes", "failed_msgs")
	const load = 0.3
	deads := []int{0, 1, 2, 4, 8}
	var pts []Point
	for _, dead := range deads {
		net := s.fcrNet()
		net.MisrouteAfter = 2
		net.MaxDetours = 4
		if dead > 0 {
			// Link ids depend only on topology; the schedule seed is
			// splitmix-derived so fault sets stay decorrelated across
			// sweep points (and from the traffic seeds).
			net.Faults = faults.RandomLinks(network.LinksOf(net.Topo), dead, s.Warmup, harness.PointSeed(s.Seed, 900+dead))
		}
		pts = append(pts, s.point("FCR", load, net))
	}
	for i, m := range s.sweep("E9", pts) {
		t.AddRow(deads[i], m.Throughput, m.AvgLatency, m.P95Latency, m.Misroutes, m.FailedMessages)
	}
	return t
}

// E10TimeoutSensitivity explores the timeout parameter the paper
// discusses in Section 7: too short a timeout produces false kills
// (retries without deadlock), too long slows recovery. The paper's rule
// (framed length x VCs) is included.
func E10TimeoutSensitivity(s Scale) *stats.Table {
	t := stats.NewTable("E10: timeout sensitivity",
		"timeout", "offered(frac)", "avg_latency", "kills/msg", "retries/msg")
	timeouts := []int{8, 16, 32, 64, 128, 0} // 0 = the paper's rule
	var pts []Point
	for _, timeout := range timeouts {
		name := fmt.Sprint(timeout)
		if timeout == 0 {
			name = "rule(LxVC)"
		}
		net := s.crNet()
		net.Timeout = timeout
		for _, load := range []float64{0.3, 0.6, 0.8} {
			pts = append(pts, s.point(name, load, net))
		}
	}
	for i, m := range s.sweep("E10", pts) {
		t.AddRow(pts[i].Series, pts[i].Load, m.AvgLatency, m.KillsPerMsg, m.RetriesPerMsg)
	}
	return t
}

// E11HardwareCost reproduces the paper's implementation-complexity
// discussion (Section 5, Figs. 7-8) as a counted-resource model: buffer
// flits, virtual-channel state machines, arbiter ports, counters and
// comparators per router plus injector/receiver additions, for each
// scheme at its canonical configuration. CR's pitch: adaptive routing
// with fewer virtual channels and only counters/comparators added at the
// interfaces.
func E11HardwareCost(s Scale) *stats.Table {
	t := stats.NewTable("E11: hardware complexity model (per node)",
		"scheme", "VCs/port", "buffer_flits", "vc_state_machines", "arbiter_inputs",
		"interface_counters", "interface_comparators", "checksum_units")
	type scheme struct {
		name     string
		vcs      int
		bufDepth int
		// interface additions
		counters, comparators, checksums int
	}
	deg := 4 // 2-D torus router
	rows := []scheme{
		// DOR torus: 2 VCs for datelines, deep FIFOs, plain interface.
		{"DOR(2vc,d=16)", 2, 16, 0, 0, 0},
		// Duato: adaptive VC + 2 escape VCs.
		{"Duato(3vc,d=2)", 3, 2, 0, 0, 0},
		// CR: 1 VC, 2-flit buffers; injector adds the Imin/pad counter,
		// the stall timer and their comparators.
		{"CR(1vc,d=2)", 1, 2, 3, 2, 0},
		// FCR: CR plus per-flit checksum generation/check at interfaces
		// and per-hop header check in the router.
		{"FCR(1vc,d=2)", 1, 2, 3, 2, 2},
	}
	for _, r := range rows {
		bufferFlits := deg * r.vcs * r.bufDepth
		vcFSMs := deg * r.vcs
		arbIn := deg * (deg*r.vcs + 1) // per output: all input VCs + injection
		t.AddRow(r.name, r.vcs, bufferFlits, vcFSMs, arbIn, r.counters, r.comparators, r.checksums)
	}
	return t
}

// E12TrafficPatterns tests the claim that CR's adaptivity pays off most
// on non-uniform traffic: CR vs DOR (equal buffer resources) across
// traffic patterns.
func E12TrafficPatterns(s Scale) *stats.Table {
	t := stats.NewTable("E12: traffic patterns, CR vs DOR",
		"pattern", "scheme", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "note")
	patterns := []string{"uniform", "transpose", "bit-reversal", "hotspot"}
	loads := []float64{0.3, 0.5, 0.7}
	var pts []Point
	for _, p := range patterns {
		for _, load := range loads {
			pts = append(pts,
				Point{Series: "CR", Pattern: p, Load: load, MsgLen: s.MsgLen, Net: s.crNet()},
				Point{Series: "DOR", Pattern: p, Load: load, MsgLen: s.MsgLen, Net: s.dorNet(1, 2)})
		}
	}
	for i, m := range s.sweep("E12", pts) {
		note := ""
		if m.Saturated() {
			note = "saturated"
		}
		t.AddRow(pts[i].Pattern, pts[i].Series, pts[i].Load, m.Throughput, m.AvgLatency, note)
	}
	return t
}

// E13PaddingOverhead quantifies CR/FCR's padding cost across message
// lengths: short messages pay the most (padding to Imin), long messages
// pay nothing under CR and a bounded extra under FCR. Measured at a low
// load so queueing does not distort the flit accounting.
func E13PaddingOverhead(s Scale) *stats.Table {
	t := stats.NewTable("E13: padding overhead vs message length (load=0.2)",
		"msg_len", "cr_pad/data", "fcr_pad/data", "cr_latency", "fcr_latency")
	var pts []Point
	for _, msgLen := range []int{4, 8, 16, 32, 64} {
		cr, fcr := s.point("CR", 0.2, s.crNet()), s.point("FCR", 0.2, s.fcrNet())
		cr.MsgLen, fcr.MsgLen = msgLen, msgLen
		pts = append(pts, cr, fcr)
	}
	ms := s.sweep("E13", pts)
	for i := 0; i < len(ms); i += 2 {
		mc, mf := ms[i], ms[i+1]
		t.AddRow(pts[i].MsgLen, mc.PadOverhead, mf.PadOverhead, mc.AvgLatency, mf.AvgLatency)
	}
	return t
}

// E14Properties stresses the protocol claims directly and reports
// pass/fail rows: exactly-once delivery, per-pair order preservation,
// intact data under FCR with faults, zero late FKILLs (padding bound),
// and liveness (no failed messages below saturation).
func E14Properties(s Scale) *stats.Table {
	t := propertyTable("E14: protocol properties under stress")
	net := s.fcrNet()
	net.TransientRate = 1e-3
	m := s.sweep("E14", []Point{s.point("FCR", 0.6, net)})[0]
	checkRow(t, "corrupt deliveries (FCR)", m.DeliveredCorrupt, m.DeliveredCorrupt == 0, "0")
	checkRow(t, "late FKILLs", m.LateFKills, m.LateFKills == 0, "0")
	checkRow(t, "order violations", m.OrderErrors, m.OrderErrors == 0, "0")
	checkRow(t, "failed messages", m.FailedMessages, m.FailedMessages == 0, "0")
	checkRow(t, "transient faults injected", m.TransientFaults, m.TransientFaults > 0, "> 0 (test not vacuous)")
	checkRow(t, "fkill retries observed", m.FKillsPerMsg, m.FKillsPerMsg > 0 || m.TransientFaults == 0, "> 0 under faults")
	return t
}
