package sim

import (
	"crnet/internal/router"
	"crnet/internal/stats"
)

// E20SelectionPolicy ablates the router's adaptive output-selection
// policy — the "which free minimal channel do I take" decision the paper
// leaves to the implementation. Rotating (deterministic spreading),
// first-candidate (no spreading) and least-loaded (credit-aware) are
// compared under uniform and transpose traffic.
func E20SelectionPolicy(s Scale) *stats.Table {
	t := stats.NewTable("E20: adaptive output-selection policy ablation",
		"policy", "pattern", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "kills/msg")
	policies := []router.Selection{router.SelectRotating, router.SelectFirst, router.SelectLeastLoaded}
	var pts []Point
	for _, pol := range policies {
		for _, pattern := range []string{"uniform", "transpose"} {
			for _, load := range []float64{0.3, 0.6} {
				net := s.crNet()
				net.Select = pol
				pts = append(pts, Point{Series: pol.String(), Pattern: pattern, Load: load, MsgLen: s.MsgLen, Net: net})
			}
		}
	}
	for i, m := range s.sweep("E20", pts) {
		t.AddRow(pts[i].Series, pts[i].Pattern, pts[i].Load, m.Throughput, m.AvgLatency, m.KillsPerMsg)
	}
	return t
}

// E21PaddingMargin shows FCR's padding bound is load-bearing: shrinking
// the pad below slack + FKILL-latency lets the source finish injecting
// before a fault's FKILL can arrive: the backward tear-down dies at a
// hop the tail already released (a stale signal) and the message is
// silently lost — the source believes it delivered, the receiver
// discarded it. With the designed padding (adjust >= 0) no message is
// ever lost.
func E21PaddingMargin(s Scale) *stats.Table {
	t := stats.NewTable("E21: FCR padding-margin ablation (fault rate 2e-3, load 0.3)",
		"pad_adjust", "lost_msgs", "stale_signals", "fkills/msg", "avg_latency")
	const load = 0.3
	var pts []Point
	for _, adjust := range []int{-100, -24, -12, -6, 0, 8} {
		net := s.fcrNet()
		net.TransientRate = 2e-3
		net.PadAdjust = adjust
		pts = append(pts, s.point("FCR", load, net))
	}
	for i, m := range s.sweep("E21", pts) {
		// A lost message is one the source completed but the receiver
		// rejected: it shows up as a censored window message after the
		// drain. The FKILL that should have caught it dies mid-path at a
		// hop the tail already released (a stale backward signal).
		t.AddRow(pts[i].Net.PadAdjust, m.Censored, m.StaleSignals, m.FKillsPerMsg, m.AvgLatency)
	}
	return t
}
