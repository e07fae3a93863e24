package sim

import (
	"bytes"
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/network"
	"crnet/internal/routing"
	snap "crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/workload"
)

// degCfg is a tight controller for unit tests: 100-cycle windows, enter
// after 1 breach, exit after 2 clean windows.
func degCfg() DegradeConfig {
	return DegradeConfig{
		LatencySLO: 50,
		Window:     100,
		EnterAfter: 1,
		ExitAfter:  2,
	}
}

// breachWindow feeds a window's worth of over-SLO deliveries and closes
// it at the given boundary cycle.
func breachWindow(d *Degrader, boundary int64) {
	for i := 0; i < 20; i++ {
		d.Observe(500)
	}
	d.EndCycle(boundary, 0, true)
}

func cleanWindow(d *Degrader, boundary int64) {
	for i := 0; i < 20; i++ {
		d.Observe(5)
	}
	d.EndCycle(boundary, 0, true)
}

func TestDegraderLadder(t *testing.T) {
	d := NewDegrader(degCfg())
	if d.State() != DegradeHealthy {
		t.Fatalf("fresh controller state = %v", d.State())
	}

	breachWindow(d, 100)
	if d.State() != DegradeDegraded {
		t.Fatalf("after 1 breached window: %v", d.State())
	}
	breachWindow(d, 200)
	if d.State() != DegradeShedding {
		t.Fatalf("after 2 breached windows: %v", d.State())
	}
	// Further breaches cannot go past shedding.
	breachWindow(d, 300)
	if d.State() != DegradeShedding {
		t.Fatalf("breach past shedding: %v", d.State())
	}

	// Hysteresis on the way back: one clean window is not enough.
	cleanWindow(d, 400)
	if d.State() != DegradeShedding {
		t.Fatalf("one clean window already stepped up: %v", d.State())
	}
	cleanWindow(d, 500)
	if d.State() != DegradeDegraded {
		t.Fatalf("two clean windows did not step up: %v", d.State())
	}
	cleanWindow(d, 600)
	cleanWindow(d, 700)
	if d.State() != DegradeHealthy {
		t.Fatalf("controller did not recover: %v", d.State())
	}
	if d.Transitions() != 4 {
		t.Fatalf("transitions = %d, want 4", d.Transitions())
	}
	if d.BreachedWindows() != 3 {
		t.Fatalf("breached windows = %d, want 3", d.BreachedWindows())
	}
}

func TestDegraderBreachSignals(t *testing.T) {
	// Unhealthy latch breaches regardless of latency.
	d := NewDegrader(degCfg())
	d.EndCycle(100, 0, false)
	if d.BreachedWindows() != 1 {
		t.Fatal("health latch did not breach the window")
	}

	// Fail budget.
	cfg := degCfg()
	cfg.FailBudget = 3
	d = NewDegrader(cfg)
	d.EndCycle(100, 2, true) // 2 fails < budget
	if d.BreachedWindows() != 0 {
		t.Fatal("under-budget fault density breached")
	}
	d.EndCycle(200, 5, true) // 3 more fails in this window
	if d.BreachedWindows() != 1 {
		t.Fatal("over-budget fault density did not breach")
	}

	// Admitted-but-zero-deliveries stall.
	d = NewDegrader(degCfg())
	d.Admit()
	d.EndCycle(100, 0, true)
	if d.BreachedWindows() != 1 {
		t.Fatal("stalled window (admissions, no deliveries) did not breach")
	}

	// Empty window is clean.
	d = NewDegrader(degCfg())
	d.EndCycle(100, 0, true)
	if d.BreachedWindows() != 0 {
		t.Fatal("idle window breached")
	}
}

func TestDegraderSheddingRates(t *testing.T) {
	d := NewDegrader(degCfg())
	breachWindow(d, 100)
	breachWindow(d, 200) // now shedding at the default 400 permille
	var admitted int64
	for i := 0; i < 1000; i++ {
		if d.Admit() {
			admitted++
		}
	}
	if admitted != 400 {
		t.Fatalf("shedding state admitted %d/1000, want 400", admitted)
	}
	if d.Shed() != 600 {
		t.Fatalf("Shed() = %d, want 600", d.Shed())
	}
}

func TestDegraderStateRoundTrip(t *testing.T) {
	d := NewDegrader(degCfg())
	breachWindow(d, 100)
	for i := 0; i < 137; i++ {
		d.Admit()
	}
	d.Observe(30)
	var e snap.Encoder
	d.SaveState(&e)

	r := NewDegrader(degCfg())
	dec := snap.NewDecoder(e.Bytes())
	if err := r.LoadState(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	if r.State() != d.State() || r.Shed() != d.Shed() || r.winAdmitted != d.winAdmitted {
		t.Fatal("restored controller counters diverged")
	}
	// Same admission decisions and window behavior afterwards.
	for i := 0; i < 500; i++ {
		if d.Admit() != r.Admit() {
			t.Fatalf("admission diverged at offer %d", i)
		}
	}
	d.EndCycle(200, 0, true)
	r.EndCycle(200, 0, true)
	if d.State() != r.State() {
		t.Fatal("window scoring diverged after restore")
	}
}

// degradeServiceCfg: a service under load-coupled chaos with the
// controller installed, for the resume pin and the chaos soak.
func degradeServiceCfg() ServiceConfig {
	cfg := svcCfg()
	cfg.Net.Hazard = &faults.HazardSpec{
		LinkLambda0: 2e-5,
		Alpha:       4,
		LinkMTTR:    150,
		EvalEvery:   32,
		Seed:        31,
	}
	cfg.Degrade = &DegradeConfig{
		LatencySLO: 200,
		Window:     128,
		FailBudget: 6,
	}
	return cfg
}

// TestServiceResumeWithDegrader extends the service resume pin to the
// degradation controller and the hazard process together: checkpoint
// mid-run, restore, and the continuation (admission decisions, window
// scoring, hazard draws) is byte-identical. The name matches the
// `make snapshot-pin` filter.
func TestServiceResumeWithDegrader(t *testing.T) {
	const K, M = 700, 2500

	ref, err := NewService(degradeServiceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Step(M); err != nil {
		t.Fatal(err)
	}
	fails, _ := ref.Network().HazardCounts()
	if fails == 0 {
		t.Fatal("hazard inert; test is vacuous")
	}

	first, err := NewService(degradeServiceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Step(K); err != nil {
		t.Fatal(err)
	}
	ckpt := first.Save()

	resumed, err := NewService(degradeServiceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Step(M - K); err != nil {
		t.Fatal(err)
	}

	if ref.Status() != resumed.Status() {
		t.Fatalf("status diverged:\n  unbroken: %+v\n  resumed:  %+v", ref.Status(), resumed.Status())
	}
	if !bytes.Equal(ref.Save(), resumed.Save()) {
		t.Fatal("final service states differ after degrader resume")
	}
}

// TestServiceDegraderPresencePinned: a checkpoint taken with a
// controller must not restore into a service without one (and vice
// versa).
func TestServiceDegraderPresencePinned(t *testing.T) {
	withDeg, err := NewService(degradeServiceCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := withDeg.Step(100); err != nil {
		t.Fatal(err)
	}
	ckpt := withDeg.Save()

	plainCfg := degradeServiceCfg()
	plainCfg.Degrade = nil
	plain, err := NewService(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(ckpt); err == nil {
		t.Fatal("degrader checkpoint restored into a controller-less service")
	}
}

// TestDegradeControllerRecovers drives a run through a failure storm
// and verifies the full arc — healthy, degraded under stress, healthy
// again once the storm passes — on a real network. Part of the
// `make chaos` soak.
func TestDegradeControllerRecovers(t *testing.T) {
	// A storm of link failures between cycles 1000 and 2000 on the
	// scheduled timeline; no hazard, so the post-storm fabric is clean.
	var evs []faults.Event
	for i := 0; i < 12; i++ {
		link := faults.LinkID{Node: i, Port: i % 4}
		evs = append(evs, faults.Event{Cycle: int64(1000 + 40*i), Link: link})
		evs = append(evs, faults.Event{Cycle: int64(2000 + 10*i), Link: link, Up: true})
	}
	cfg := ServiceConfig{
		Net: network.Config{
			Topo:          topology.NewTorus(4, 2),
			Alg:           routing.MinimalAdaptive{},
			Protocol:      core.FCR,
			Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			MisrouteAfter: 2,
			MaxDetours:    4,
			Seed:          3,
			Faults:        faults.NewSchedule(evs),
		},
		Trace: workload.GenUniform(workload.TraceSpec{
			Nodes: 16, Cycles: 1000, Rate: 0.02, MsgLen: 6, Seed: 17,
		}),
		Loop: true,
		Degrade: &DegradeConfig{
			LatencySLO: 300,
			Window:     128,
			FailBudget: 2,
			ExitAfter:  2,
		},
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sawStress := false
	for c := 0; c < 8000; c += 100 {
		if err := svc.Step(100); err != nil {
			t.Fatal(err)
		}
		if svc.Status().Degrade != "healthy" {
			sawStress = true
		}
	}
	st := svc.Status()
	if !sawStress {
		t.Fatal("controller never left healthy during the failure storm")
	}
	if st.Degrade != "healthy" {
		t.Fatalf("controller did not recover after the storm: %s (breached=%d)",
			st.Degrade, st.BreachedWindows)
	}
	if st.Shed == 0 {
		t.Fatal("controller degraded but shed nothing")
	}
	if st.Delivered == 0 {
		t.Fatal("nothing delivered; test is vacuous")
	}
}

// TestDegraderLoadStateRejectsCorruptSnapshots is the regression table
// for the controller codec's validation: an out-of-range state byte, a
// gate section violating the throttle invariants, a window histogram
// saved under a different SLO, and damaged payloads must all be refused
// before the controller is mutated.
func TestDegraderLoadStateRejectsCorruptSnapshots(t *testing.T) {
	save := func(d *Degrader) []byte {
		var e snap.Encoder
		d.SaveState(&e)
		return e.Bytes()
	}
	build := func() *Degrader {
		d := NewDegrader(degCfg())
		breachWindow(d, 100)
		for i := 0; i < 137; i++ {
			d.Admit()
		}
		return d
	}
	// Sanity: an unmodified snapshot restores cleanly.
	if err := NewDegrader(degCfg()).LoadState(snap.NewDecoder(save(build()))); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	cases := []struct {
		name, wantSub string
		build         func(t *testing.T) []byte
	}{
		{"state-out-of-range", "degrade state", func(t *testing.T) []byte {
			raw := save(build())
			raw[0] = 9 // the state byte leads the payload; 9 is past shedding
			return raw
		}},
		{"throttle-out-of-range", "throttle state", func(t *testing.T) []byte {
			var e snap.Encoder
			e.U8(uint8(DegradeHealthy))
			e.Varint(5) // admit 5 of every 2: violates num <= den
			e.Varint(2)
			e.Varint(0)
			return e.Bytes()
		}},
		{"window-histogram-shape", "histogram shape", func(t *testing.T) []byte {
			// A 6400-cycle SLO widens the latency buckets, so the window
			// histogram's shape no longer matches the target controller's.
			cfg := degCfg()
			cfg.LatencySLO = 6400
			return save(NewDegrader(cfg))
		}},
		{"truncated", "truncated", func(t *testing.T) []byte {
			raw := save(build())
			return raw[:len(raw)-1]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := NewDegrader(degCfg()).LoadState(snap.NewDecoder(tc.build(t)))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
