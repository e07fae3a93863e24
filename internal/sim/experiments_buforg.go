package sim

import (
	"crnet/internal/bound"
	"crnet/internal/network"
	"crnet/internal/router"
	"crnet/internal/stats"
)

// Buffer-organization experiments. E31 re-runs the paper's buffer
// economics axes (the E5/E6 question: what does a fixed silicon budget
// buy?) across the three router buffer organizations; E32 checks the
// analytical per-flow latency bound (internal/bound) against the worst
// observed in-network residence under each organization.

// E31BufferOrgs sweeps the three buffer organizations — static FIFO,
// per-port DAMQ and router-wide credit-shared — at an equal slot budget
// across the protocols the paper's buffer figures compare: CR with one
// VC (where a port-wide pool is one deep FIFO), CR with four VCs (where
// sharing competes with the VC discipline for the same slots) and
// deep-buffered DOR. Sharing pays where a static partition strands
// capacity on idle VCs; it costs where the wider absorption window
// stretches CR's padding (AbsorbDepth grows with the window cap).
func E31BufferOrgs(s Scale) *stats.Table {
	t := stats.NewTable("E31: buffer organizations (fifo/damq/shared) at equal slot budget", loadColumns()...)
	var pts []Point
	for _, org := range router.BufferOrgs {
		cr1 := s.crNet()
		cr1.BufOrg = org
		cr4 := s.crNet()
		cr4.VCs = 4
		cr4.BufOrg = org
		dor := s.dorNet(2, 4)
		dor.BufOrg = org
		pts = append(pts, s.loadGrid(org.String()+"/CR(vc=1)", "uniform", cr1)...)
		pts = append(pts, s.loadGrid(org.String()+"/CR(vc=4)", "uniform", cr4)...)
		pts = append(pts, s.loadGrid(org.String()+"/DOR(vc=4,d=4)", "uniform", dor)...)
	}
	for i, m := range s.sweep("E31", pts) {
		addLoadRow(t, pts[i].Series, pts[i].Load, m)
	}
	return t
}

// orgBoundModel builds the analytical latency model for a CR network
// config: topology geometry plus the organization's worst-case per-hop
// absorption (router.Config.AbsorbDepth — BufDepth for static FIFO, the
// window cap for the shared organizations).
func orgBoundModel(s Scale, net network.Config) bound.Model {
	topo := s.torus()
	rc := router.Config{VCs: net.VCs, BufDepth: net.BufDepth, Org: net.BufOrg}
	return bound.Model{
		Degree:            topo.Degree(),
		Diameter:          topo.Diameter(),
		VCs:               net.VCs,
		InjectionChannels: 1,
		Absorb:            rc.AbsorbDepth(topo.Degree()),
		MsgLen:            s.MsgLen,
		CR:                true,
	}
}

// E32LatencyBound checks the direct-interference latency bound against
// observation: for every buffer organization, at the E17 load points,
// the worst in-network residence of any delivered attempt (injection to
// tail drained — the phases the bound models; queueing and retries are
// excluded) must stay under bound.NetworkBound. The headroom column is
// bound/observed; a FAIL verdict means the analytical model lost to the
// simulator and needs revisiting.
func E32LatencyBound(s Scale) *stats.Table {
	t := stats.NewTable("E32: analytical per-flow bound vs observed worst in-network residence (CR)",
		"org", "offered(frac)", "absorb", "worm_len", "bound", "observed_max", "headroom", "verdict")
	var pts []Point
	for _, org := range router.BufferOrgs {
		net := s.crNet()
		net.BufOrg = org
		for _, load := range []float64{0.3, 0.6} {
			pts = append(pts, Point{Series: org.String(), Pattern: "uniform", Load: load, MsgLen: s.MsgLen, Net: net})
		}
	}
	for i, m := range s.sweep("E32", pts) {
		mod := orgBoundModel(s, pts[i].Net)
		b := mod.NetworkBound()
		headroom := 0.0
		if m.MaxNetResidence > 0 {
			headroom = float64(b) / float64(m.MaxNetResidence)
		}
		t.AddRow(pts[i].Series, pts[i].Load, mod.Absorb, mod.FlowLen(mod.Diameter),
			b, m.MaxNetResidence, headroom, stats.Verdict(m.MaxNetResidence <= int64(b)))
	}
	return t
}
