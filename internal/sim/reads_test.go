package sim

import (
	"bytes"
	"testing"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/routing"
	snap "crnet/internal/snapshot"
	"crnet/internal/topology"
)

// TestReadsDoNotConstruct: which components a network has built is part
// of its checkpoint bytes, so it has to be a function of the simulation
// alone. Everything that only looks at a network — the stats accessors,
// the metrics registry's gauges, a watchdog audit — must leave a lazily
// built network mid-run saving to the same bytes as before the look.
func TestReadsDoNotConstruct(t *testing.T) {
	const k = 16
	topo := topology.NewTorus(k, 2)
	n := network.New(network.Config{
		Topo:        topo,
		Alg:         routing.MinimalAdaptive{},
		Protocol:    core.FCR,
		Backoff:     core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		MaxAttempts: 2,
		Timeout:     8,
		Seed:        5,
	})
	save := func() []byte {
		var e snap.Encoder
		n.SaveState(&e)
		return e.Bytes()
	}
	untouched := len(save())

	// Traffic among the sixteen nodes of one 4x4 corner, heavy enough
	// that worms are blocked and attempts are abandoned when it stops.
	var id flit.MessageID
	for c := int64(0); c < 300; c++ {
		for s := 0; s < 16; s += 3 {
			a, b := (int(c)+s)%16, (int(c)*7+s+5)%16
			if a == b {
				continue
			}
			id++
			n.SubmitMessage(flit.Message{
				ID:         id,
				Src:        topology.NodeID(a/4*k + a%4),
				Dst:        topology.NodeID(b/4*k + b%4),
				DataLen:    24,
				CreateTime: c,
			})
		}
		n.Step()
		n.DrainDeliveries()
	}
	before := save()
	if n.PendingWorms() == 0 || n.QueuedMessages() == 0 || len(n.MessageFailures()) == 0 {
		t.Fatal("network is idle; test is vacuous")
	}
	if len(before) > untouched+16*4096 {
		t.Fatalf("checkpoint grew from %d to %d bytes; the network is not sparsely built", untouched, len(before))
	}

	_ = n.Health()
	_ = n.Ledger()
	_ = n.InjectorStats()
	_ = n.ReceiverStats()
	_ = n.RouterStats()
	_ = n.LinkFlits()
	_ = n.LinkLoads()
	_ = n.PendingWorms()
	_ = n.QueuedMessages()
	_ = n.InFlightFlits()
	_ = n.OccupancyPerVCInto(nil)
	_ = n.InjectionOccupancy()
	_, _ = n.MaxHops()
	_ = n.BlockedWorms(1)
	_ = n.MessageFailures()
	for _, far := range []topology.NodeID{0, 5*k + 9, k*k - 1} {
		_ = n.Connected(far, k*k/2)
	}
	reg, sampler := buildSampler(n, 1, 4)
	_ = reg.Sample()
	sampler.Tick(n.Cycle())
	// The abandoned messages make the audit walk the failure log and the
	// connectivity search; what it concludes is not this test's subject.
	_ = invariant.New(invariant.Config{}).Audit(n)

	if !bytes.Equal(save(), before) {
		t.Fatal("reading the network changed its checkpoint bytes")
	}
}
