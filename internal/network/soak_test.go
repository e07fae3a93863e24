package network

import (
	"fmt"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// TestSoakRandomConfigurations drives a spread of randomly drawn but
// valid configurations with router invariant checking enabled, asserting
// the protocol's global properties on each: no invariant panics, no lost
// or duplicated messages after drain, no order violations, no corrupt
// deliveries under FCR.
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes ~10s")
	}
	r := rng.New(0xC0FFEE)
	const configs = 14
	for i := 0; i < configs; i++ {
		cfg, load, msgLen := randomConfig(r, uint64(i))
		name := fmt.Sprintf("cfg%02d_%s_%s_vc%d_d%d", i, cfg.Topo.Name(), cfg.Protocol, cfg.VCs, cfg.BufDepth)
		t.Run(name, func(t *testing.T) {
			soakOne(t, cfg, load, msgLen)
		})
	}
}

// randomConfig draws one valid configuration.
func randomConfig(r *rng.Source, seed uint64) (Config, float64, int) {
	var topo topology.Topology
	switch r.Intn(4) {
	case 0:
		topo = topology.NewTorus(4, 2)
	case 1:
		topo = topology.NewTorus(3+r.Intn(3), 2)
	case 2:
		topo = topology.NewMesh(4, 2)
	default:
		topo = topology.NewHypercube(4)
	}
	cfg := Config{
		Topo:              topo,
		Protocol:          core.Protocol(1 + r.Intn(2)), // CR or FCR
		Alg:               routing.MinimalAdaptive{},
		VCs:               1 + r.Intn(3),
		BufDepth:          1 + r.Intn(4),
		InjectionChannels: 1 + r.Intn(2),
		EjectionChannels:  1 + r.Intn(2),
		Backoff:           core.Backoff{Kind: core.BackoffKind(r.Intn(2)), Gap: 4 << r.Intn(3)},
		Seed:              seed,
		Check:             true,
	}
	if r.Bernoulli(0.5) {
		cfg.TransientRate = 1e-3
	}
	if r.Bernoulli(0.3) {
		cfg.Timeout = 8 << r.Intn(4)
	}
	if r.Bernoulli(0.3) {
		cfg.RouterTimeout = 16 << r.Intn(3)
	}
	load := 0.2 + r.Float64()*0.6
	msgLen := 2 + r.Intn(24)
	return cfg, load, msgLen
}

// TestSoakInvalidationConfigurations is the soak's second arm. It draws
// what the first leaves out: a permanent fail/repair timeline, retries
// that may misroute, and the DOR, Duato and (on a mesh) west-first
// routing functions. So every path that drops a cached route or moves
// a bit of the waiting and holding masks (router/alloc.go) runs under
// Check, whose consistency walk compares each cached route with a fresh
// one every cycle. It draws from its own keyed source, so the first
// arm's configurations do not move.
func TestSoakInvalidationConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes ~5s")
	}
	r := rng.New(0x1AB5E)
	const configs = 8
	for i := 0; i < configs; i++ {
		cfg, load, msgLen := randomInvalidationConfig(r, i%4, uint64(i)+500)
		name := fmt.Sprintf("cfg%02d_%s_%s_%s_vc%d", i, cfg.Topo.Name(), cfg.Alg.Name(), cfg.Protocol, cfg.VCs)
		t.Run(name, func(t *testing.T) {
			soakOne(t, cfg, load, msgLen)
		})
	}
}

// randomInvalidationConfig draws one configuration for the second soak
// arm: routing function fn (0 minimal adaptive, 1 DOR, 2 Duato, 3
// west-first) on a topology it supports, misrouting, and a fail/repair
// timeline over every link.
func randomInvalidationConfig(r *rng.Source, fn int, seed uint64) (Config, float64, int) {
	var topo topology.Topology
	var alg routing.Algorithm
	switch fn {
	case 0:
		alg = routing.MinimalAdaptive{}
		topo = []topology.Topology{topology.NewTorus(4, 2), topology.NewMesh(4, 2), topology.NewHypercube(4)}[r.Intn(3)]
	case 1:
		alg = routing.DOR{Lanes: 1 + r.Intn(2)}
		topo = []topology.Topology{topology.NewTorus(4, 2), topology.NewMesh(4, 2), topology.NewHypercube(4)}[r.Intn(3)]
	case 2:
		alg = routing.Duato{AdaptiveVCs: 1 + r.Intn(2)}
		topo = []topology.Topology{topology.NewTorus(4, 2), topology.NewMesh(4, 2)}[r.Intn(2)]
	default:
		alg = routing.WestFirst{}
		topo = topology.NewMesh(4, 2)
	}
	cfg := Config{
		Topo:              topo,
		Protocol:          core.Protocol(1 + r.Intn(2)), // CR or FCR
		Alg:               alg,
		VCs:               alg.MinVCs(topo) + r.Intn(2),
		BufDepth:          1 + r.Intn(3),
		InjectionChannels: 1 + r.Intn(2),
		EjectionChannels:  1 + r.Intn(2),
		Backoff:           core.Backoff{Kind: core.BackoffKind(r.Intn(2)), Gap: 4 << r.Intn(3)},
		MaxAttempts:       255,
		MisrouteAfter:     1 + r.Intn(3),
		MaxDetours:        1 + r.Intn(3),
		Seed:              seed,
		Faults: faults.RandomTimeline(faults.TimelineConfig{
			Links:    LinksOf(topo),
			LinkMTBF: 400 + 800*r.Float64(), LinkMTTR: 20 + 40*r.Float64(),
			Start: 50, Horizon: 2000,
			Seed: seed,
		}),
		Check: true,
	}
	if r.Bernoulli(0.5) {
		cfg.TransientRate = 1e-3
	}
	load := 0.3 + r.Float64()*0.5
	msgLen := 2 + r.Intn(16)
	return cfg, load, msgLen
}

func soakOne(t *testing.T, cfg Config, load float64, msgLen int) {
	t.Helper()
	n := New(cfg)
	topo := cfg.Topo
	gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, load, msgLen, cfg.Seed+99)
	submitted := map[flit.MessageID]bool{}
	delivered := map[flit.MessageID]bool{}
	const trafficCycles = 2500
	maxCycles := int64(trafficCycles * 80)
	for c := int64(0); c < maxCycles; c++ {
		if c < trafficCycles {
			for node := 0; node < topo.Nodes(); node++ {
				if m, ok := gen.Tick(topology.NodeID(node), c); ok {
					submitted[m.ID] = true
					n.SubmitMessage(m)
				}
			}
		}
		n.Step()
		for _, d := range n.DrainDeliveries() {
			if delivered[d.Msg] {
				t.Fatalf("message %d delivered twice", d.Msg)
			}
			if !submitted[d.Msg] {
				t.Fatalf("message %d delivered but never submitted", d.Msg)
			}
			delivered[d.Msg] = true
			if !d.DataOK && cfg.Protocol == core.FCR {
				t.Fatalf("FCR delivered corrupt message %d", d.Msg)
			}
		}
		if c >= trafficCycles && n.QueuedMessages() == 0 && n.PendingWorms() == 0 && !anyBusy(n) {
			break
		}
	}
	failed := n.InjectorStats().Failed
	lost := int64(len(submitted)) - int64(len(delivered)) - failed
	switch {
	case lost < 0 || lost > 0 && cfg.Faults == nil:
		t.Fatalf("delivered %d + failed %d != submitted %d",
			len(delivered), failed, len(submitted))
	case lost > 0:
		// A link that dies under a worm whose tail has left its source
		// (CR's commit point) loses the message: the source no longer
		// holds it to retransmit. It must stay rare.
		if float64(lost) > 0.05*float64(len(submitted)) {
			t.Fatalf("%d of %d messages lost to link failures", lost, len(submitted))
		}
		t.Logf("note: %d of %d messages lost to link failures", lost, len(submitted))
	}
	if failed > 0 {
		// Extreme random configs (tiny buffers + tiny timeout) may give
		// up on a few messages; it must stay rare.
		if float64(failed) > 0.02*float64(len(submitted)) {
			t.Fatalf("%d of %d messages failed", failed, len(submitted))
		}
		t.Logf("note: %d of %d messages failed after max retries", failed, len(submitted))
	}
	if st := n.InjectorStats(); st.LateFKills != 0 {
		t.Fatalf("late FKILLs: %d", st.LateFKills)
	}
	// Per-pair FIFO delivery holds with a single-channel interface on
	// both sides: serial injection orders the worms, and the single
	// ejection channel serializes their completion. A second ejection
	// channel lets a later message overtake a congested earlier one.
	if cfg.InjectionChannels == 1 && cfg.EjectionChannels == 1 && n.ReceiverStats().OrderErrors != 0 {
		t.Fatalf("order violations with a single-channel interface: %d", n.ReceiverStats().OrderErrors)
	}
}
