package sim

import (
	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/stats"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// The experiments in this file cover the paper's discussion-section
// material beyond the main evaluation figures: the alternate timeout
// schemes of Section 7, the turn-model comparison implied by the related
// work (reference [19]), the latency-variance discussion (reference
// [32]) and bimodal traffic loads from the same companion study.

// E15TimeoutSchemes reproduces the Section 7/8 ablation: the chosen
// source-based timeout against a path-wide scheme where every router
// kills worms it has held blocked too long. The paper's finding: the
// path-wide schemes produce unnecessary message kills and inferior
// performance, because a router cannot tell a committed-but-slow worm
// from a deadlocked one.
func E15TimeoutSchemes(s Scale) *stats.Table {
	t := stats.NewTable("E15 (Sec. 7/8): source-based vs path-wide timeout",
		"scheme", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "kills/msg", "retries/msg")
	pathWide := s.crNet()
	// Same detection horizon as the source scheme's default rule; the
	// source timeout is disabled to isolate the scheme.
	pathWide.RouterTimeout = s.MsgLen
	pathWide.Timeout = 1 << 20
	pts := append(s.loadGrid("source-based", "uniform", s.crNet()), s.loadGrid("path-wide", "uniform", pathWide)...)
	for i, m := range s.sweep("E15", pts) {
		kills := m.KillsPerMsg
		if pts[i].Net.RouterTimeout > 0 {
			// Path-wide kills surface as FKILL retransmissions at sources.
			kills = m.FKillsPerMsg
		}
		t.AddRow(pts[i].Series, pts[i].Load, m.Throughput, m.AvgLatency, kills, m.RetriesPerMsg)
	}
	return t
}

// E16TurnModel compares the three adaptivity levels available without
// (or nearly without) virtual channels on an 8x8 mesh: DOR (none),
// west-first turn model (partial, reference [19]), and CR (full). The
// turn model needs no protocol support but is topology-limited — it does
// not extend to the torus, which is exactly the gap CR fills.
func E16TurnModel(s Scale) *stats.Table {
	t := stats.NewTable("E16: adaptivity without VCs on the mesh: DOR vs west-first vs CR",
		"pattern", "scheme", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency")
	mesh := topology.NewMesh(s.K, 2)
	schemes := []struct {
		name string
		cfg  network.Config
	}{
		{"DOR", s.netOn(mesh, routing.DOR{}, core.Plain)},
		{"west-first", s.netOn(mesh, routing.WestFirst{}, core.Plain)},
		{"CR", s.netOn(mesh, routing.MinimalAdaptive{}, core.CR)},
	}
	var pts []Point
	for _, pattern := range []string{"uniform", "transpose"} {
		for _, sc := range schemes {
			pts = append(pts, s.loadGrid(sc.name, pattern, sc.cfg)...)
		}
	}
	for i, m := range s.sweep("E16", pts) {
		t.AddRow(pts[i].Pattern, pts[i].Series, pts[i].Load, m.Throughput, m.AvgLatency)
	}
	return t
}

// E17LatencyDistribution addresses the paper's variance discussion
// (Section 7, reference [32]): kills and retransmissions give some CR
// messages much larger latencies, widening the distribution's tail even
// where the mean is competitive. Reported: the latency percentiles of CR
// and DOR at moderate and high load.
func E17LatencyDistribution(s Scale) *stats.Table {
	t := stats.NewTable("E17: latency distribution tails, CR vs DOR",
		"scheme", "offered(frac)", "avg", "p50", "p95", "p99", "max")
	var pts []Point
	for _, load := range []float64{0.3, 0.6} {
		pts = append(pts, s.point("CR", load, s.crNet()), s.point("DOR", load, s.dorNet(1, 2)))
	}
	for i, m := range s.sweep("E17", pts) {
		t.AddRow(pts[i].Series, pts[i].Load, m.AvgLatency, m.P50Latency, m.P95Latency, m.P99Latency, m.MaxLatency)
	}
	return t
}

// E18BimodalTraffic runs the bimodal short/long message mix (reference
// [32]): 4-flit protocol messages with a fraction of 64-flit data
// messages. CR's padding hits short messages hardest while adaptivity
// helps the long ones, so the mix probes both ends of the trade.
func E18BimodalTraffic(s Scale) *stats.Table {
	t := stats.NewTable("E18: bimodal traffic (4/64-flit mix)",
		"scheme", "long_frac", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "p99")
	const load = 0.4
	var pts []Point
	for _, longFrac := range []float64{0.0, 0.1, 0.3, 0.5} {
		cr, dor := s.point("CR", load, s.crNet()), s.point("DOR", load, s.dorNet(1, 2))
		cr.Lengths = traffic.Bimodal{Short: 4, Long: 64, LongFrac: longFrac}
		dor.Lengths = cr.Lengths
		pts = append(pts, cr, dor)
	}
	for i, m := range s.sweep("E18", pts) {
		longFrac := pts[i].Lengths.(traffic.Bimodal).LongFrac
		t.AddRow(pts[i].Series, longFrac, load, m.Throughput, m.AvgLatency, m.P99Latency)
	}
	return t
}
