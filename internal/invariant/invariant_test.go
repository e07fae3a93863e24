package invariant

import (
	"errors"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// permutationLoad submits the dense antipodal permutation traffic that
// wedges a 1-VC fully adaptive network without CR (the paper's
// motivating deadlock).
func permutationLoad(n *network.Network, topo topology.Topology) {
	id := flit.MessageID(1)
	for round := 0; round < 8; round++ {
		for src := 0; src < topo.Nodes(); src++ {
			dst := (src + topo.Nodes()/2 + round) % topo.Nodes()
			if dst == src {
				continue
			}
			n.SubmitMessage(flit.Message{ID: id, Src: topology.NodeID(src), Dst: topology.NodeID(dst), DataLen: 24})
			id++
		}
	}
}

func buildNet(topo topology.Topology, protocol core.Protocol) *network.Network {
	return network.New(network.Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: protocol,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Check:    true,
	})
}

// The acceptance-criteria pair: the watchdog reports the plain adaptive
// deadlock as a structured Deadlock violation, while CR under the same
// load completes with zero violations.
func TestWatchdogCatchesRealDeadlock(t *testing.T) {
	topo := topology.NewTorus(4, 2)

	plain := buildNet(topo, core.Plain)
	w := New(Config{DeadlockWindow: 1500})
	plain.SetMonitor(w)
	permutationLoad(plain, topo)
	for c := 0; c < 8000 && plain.Health() == nil; c++ {
		plain.Step()
	}
	err := plain.Health()
	if err == nil {
		t.Fatal("watchdog did not flag the deadlocked plain adaptive network")
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("health error %T is not a Violation: %v", err, err)
	}
	if v.Kind != Deadlock {
		t.Fatalf("violation kind %v, want deadlock: %v", v.Kind, v)
	}
	if len(w.Violations()) == 0 || w.Scans() == 0 {
		t.Fatalf("watchdog state inconsistent: %d violations, %d scans", len(w.Violations()), w.Scans())
	}

	cr := buildNet(topo, core.CR)
	wcr := New(Config{DeadlockWindow: 1500})
	cr.SetMonitor(wcr)
	permutationLoad(cr, topo)
	submitted := cr.InjectorStats().Submitted
	delivered := int64(0)
	for c := 0; c < 400000 && delivered < submitted; c++ {
		cr.Step()
		delivered += int64(len(cr.DrainDeliveries()))
		if cr.Health() != nil {
			t.Fatalf("CR run flagged unhealthy: %v", cr.Health())
		}
	}
	if delivered != submitted {
		t.Fatalf("CR delivered %d of %d", delivered, submitted)
	}
	if len(wcr.Violations()) != 0 {
		t.Fatalf("CR run recorded violations: %v", wcr.Violations())
	}
	if wcr.Scans() == 0 {
		t.Fatal("watchdog never scanned the CR run")
	}
}

func TestWatchdogLivelockBudget(t *testing.T) {
	topo := topology.NewTorus(8, 2)
	n := buildNet(topo, core.CR)
	// A hop budget of 1 convicts any multi-hop worm: structural proof
	// the hop accounting reaches the watchdog.
	n.SetMonitor(New(Config{HopBudget: 1, CheckEvery: 1}))
	n.SubmitMessage(flit.Message{ID: 1, Src: 0, Dst: 5, DataLen: 4})
	for c := 0; c < 200 && n.Health() == nil; c++ {
		n.Step()
	}
	var v Violation
	if err := n.Health(); !errors.As(err, &v) || v.Kind != Livelock {
		t.Fatalf("want livelock violation, got %v", err)
	}
}

func TestWatchdogObligationOnUnjustifiedFailure(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	n := network.New(network.Config{
		Topo:        topo,
		Alg:         routing.MinimalAdaptive{},
		Protocol:    core.CR,
		Timeout:     8, // hair-trigger kills under contention
		MaxAttempts: 1, // abandon on first kill
		Backoff:     core.Backoff{Kind: core.BackoffStatic, Gap: 4},
		Check:       true,
	})
	n.SetMonitor(New(Config{CheckEvery: 16}))
	permutationLoad(n, topo)
	for c := 0; c < 20000 && n.Health() == nil; c++ {
		n.Step()
		n.DrainDeliveries()
	}
	var v Violation
	if err := n.Health(); !errors.As(err, &v) || v.Kind != Obligation {
		t.Fatalf("want obligation violation (connected endpoints, no faults), got %v", err)
	}
}

func TestWatchdogObligationAllowsDisconnection(t *testing.T) {
	// Node 0 on a 4x1 ring loses both its links: messages 0->2 must be
	// abandoned, and the watchdog must accept that (endpoints
	// disconnected).
	topo := topology.NewTorus(4, 1)
	n := network.New(network.Config{
		Topo:        topo,
		Alg:         routing.MinimalAdaptive{},
		Protocol:    core.CR,
		Timeout:     16,
		MaxAttempts: 3,
		Backoff:     core.Backoff{Kind: core.BackoffStatic, Gap: 4},
		Faults: faults.NewSchedule([]faults.Event{
			{Cycle: 5, Kind: faults.NodeEvent, Node: 1},
			{Cycle: 5, Kind: faults.NodeEvent, Node: 3},
		}),
		Check: true,
	})
	n.SetMonitor(New(Config{CheckEvery: 8}))
	n.SubmitMessage(flit.Message{ID: 1, Src: 0, Dst: 2, DataLen: 4, CreateTime: 10})
	for c := 0; c < 5000; c++ {
		n.Step()
		if n.Health() != nil {
			t.Fatalf("legitimate disconnection flagged: %v", n.Health())
		}
	}
	if n.InjectorStats().Failed == 0 {
		t.Fatal("message was not abandoned despite disconnection")
	}
}

func TestFlitLedgerCheck(t *testing.T) {
	good := network.FlitLedger{Injected: 100, Ejected: 60, Purged: 10, Stragglers: 5, Dropped: 5, Buffered: 12, InFlight: 8}
	if err := good.Check(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	bad := good
	bad.Buffered++ // a flit appeared from nowhere
	if bad.Check() == nil {
		t.Fatal("unbalanced ledger accepted")
	}
}

func TestViolationFormatting(t *testing.T) {
	v := Violation{Kind: Conservation, Cycle: 42, Detail: "x"}
	if v.Error() == "" || Kind(99).String() == "" {
		t.Fatal("empty formatting")
	}
}
