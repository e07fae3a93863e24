package sim

import (
	"bytes"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
	"crnet/internal/workload"
)

// svcCfg builds the service-test configuration: FCR on a 4x4 torus with
// transient corruption and a fault timeline, fed by a looping hotspot
// trace, sampler on. Each call constructs a fresh fault Schedule (the
// cursor is mutable run state — never share one between networks).
func svcCfg() ServiceConfig {
	return ServiceConfig{
		Net: network.Config{
			Topo:          topology.NewTorus(4, 2),
			Alg:           routing.MinimalAdaptive{},
			Protocol:      core.FCR,
			Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			TransientRate: 5e-3,
			Seed:          21,
			Faults: faults.NewSchedule([]faults.Event{
				{Cycle: 150, Link: faults.LinkID{Node: 1, Port: 0}},
				{Cycle: 450, Link: faults.LinkID{Node: 1, Port: 0}, Up: true},
			}),
			Check: true,
		},
		Trace: workload.GenHotspot(workload.TraceSpec{
			Nodes: 16, Cycles: 600, Rate: 0.04, MsgLen: 8, Seed: 5,
			Hotspot: workload.HotspotSpec{Fraction: 0.5, HotNodes: 2},
		}),
		Loop:        true,
		SampleEvery: 50,
		SampleCap:   128,
	}
}

// TestServiceResumeByteIdentical is the service-level kill-resume
// guarantee: Save at cycle K, Restore into a freshly built service,
// and the continuation — delivery stream hash, statistics, sampler
// ring, full state bytes — matches an unbroken run exactly.
func TestServiceResumeByteIdentical(t *testing.T) {
	const K, M = 400, 1200

	ref, err := NewService(svcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Step(M); err != nil {
		t.Fatal(err)
	}

	first, err := NewService(svcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Step(K); err != nil {
		t.Fatal(err)
	}
	ckpt := first.Save()

	resumed, err := NewService(svcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if resumed.Cycle() != K {
		t.Fatalf("restored cycle = %d, want %d", resumed.Cycle(), K)
	}
	if err := resumed.Step(M - K); err != nil {
		t.Fatal(err)
	}

	refStatus, resStatus := ref.Status(), resumed.Status()
	if refStatus.Delivered == 0 {
		t.Fatal("reference service delivered nothing; test is vacuous")
	}
	if ref.Network().TransientFaults() == 0 {
		t.Fatal("no transient corruption occurred; test is vacuous")
	}
	if refStatus != resStatus {
		t.Fatalf("status diverged:\n  unbroken: %+v\n  resumed:  %+v", refStatus, resStatus)
	}
	if ref.StreamHash() != resumed.StreamHash() {
		t.Fatalf("stream hash diverged: %016x != %016x", resumed.StreamHash(), ref.StreamHash())
	}
	if !bytes.Equal(ref.Save(), resumed.Save()) {
		t.Fatal("final service states differ after resume")
	}

	refSeries, resSeries := ref.Series(), resumed.Series()
	if refSeries == nil || resSeries == nil {
		t.Fatal("sampler series missing")
	}
	if len(refSeries.Samples) == 0 {
		t.Fatal("sampler took no samples; test is vacuous")
	}
	if len(resSeries.Samples) != len(refSeries.Samples) {
		t.Fatalf("sample counts differ: %d != %d", len(resSeries.Samples), len(refSeries.Samples))
	}
}

// TestServiceRestoreRejectsMismatch: a payload restores only into a
// service configured identically to its saver.
func TestServiceRestoreRejectsMismatch(t *testing.T) {
	donor, err := NewService(svcCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Step(200); err != nil {
		t.Fatal(err)
	}
	ckpt := donor.Save()

	// Different trace: replayer fingerprint gate.
	cfg := svcCfg()
	cfg.Trace = workload.GenUniform(workload.TraceSpec{Nodes: 16, Cycles: 600, Rate: 0.04, MsgLen: 8, Seed: 5})
	other, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ckpt); err == nil {
		t.Fatal("restore accepted under a different trace")
	}

	// Sampler off in the target: presence gate.
	cfg = svcCfg()
	cfg.SampleEvery = 0
	plain, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(ckpt); err == nil {
		t.Fatal("restore accepted without a sampler")
	}

	// Unknown payload version.
	target, err := NewService(svcCfg())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ckpt...)
	bad[0] = 99
	if err := target.Restore(bad); err == nil {
		t.Fatal("restore accepted an unknown payload version")
	}
}

// TestServiceDoneDrains: a non-looping trace runs dry, the network
// drains, and Done flips once nothing is queued or in flight.
func TestServiceDoneDrains(t *testing.T) {
	cfg := svcCfg()
	cfg.Trace = workload.GenBursty(workload.TraceSpec{Nodes: 16, Cycles: 300, Rate: 0.03, MsgLen: 6, Seed: 9})
	cfg.Loop = false
	cfg.Net.TransientRate = 0 // corrupted worms retry forever under load 0; keep the drain finite
	cfg.Net.Faults = nil
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !s.Done(); i++ {
		if err := s.Step(100); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Done() {
		t.Fatal("service never drained")
	}
	st := s.Status()
	if st.Submitted == 0 || st.Delivered != st.Submitted {
		t.Fatalf("delivered %d of %d submitted", st.Delivered, st.Submitted)
	}
}

// TestInvalidNetworkIsAnError: a network configuration the lazily built
// routers would reject comes back as an error from Run and NewService,
// not as a panic from the first cycle.
func TestInvalidNetworkIsAnError(t *testing.T) {
	svc := svcCfg()
	svc.Net.InjectionChannels = -1
	if _, err := NewService(svc); err == nil {
		t.Error("NewService accepted InjectionChannels = -1")
	}
	if _, err := Run(Config{Net: svc.Net, Load: 0.1, MsgLen: 8, MeasureCycles: 10}); err == nil {
		t.Error("Run accepted InjectionChannels = -1")
	}
}

// daemonGateCfg is the daemon16 benchmark's service at 8x8 — FCR with
// misrouting, transient corruption, the load-coupled hazard, a looping
// bursty trace, the sampler and the degradation controller — with the
// hazard ten times hotter, the latency SLO at 100 cycles rather than
// 800 and an 8 192-cycle trace rather than 131 072, so every 40-batch
// window fails and repairs links, sheds and replays the trace's wrap.
func daemonGateCfg() ServiceConfig {
	topo := topology.NewTorus(8, 2)
	spec := workload.TraceFor(topo, 0.05, 16, 8192, 101, traffic.CapacityFlitsPerNode(topo))
	spec.Burst = workload.BurstTraceSpec{MeanCalm: 100, MeanBurst: 10}
	return ServiceConfig{
		Net: network.Config{
			Topo:          topo,
			Alg:           routing.MinimalAdaptive{},
			Protocol:      core.FCR,
			VCs:           1,
			BufDepth:      2,
			Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
			MisrouteAfter: 2,
			MaxDetours:    4,
			TransientRate: 1e-4,
			Seed:          1,
			Hazard:        &faults.HazardSpec{LinkLambda0: 2e-6, Alpha: 6, LinkMTTR: 1500, Seed: 103},
		},
		Trace:       workload.GenBursty(spec),
		Loop:        true,
		SampleEvery: 100,
		Degrade:     &DegradeConfig{LatencySLO: 100, FailBudget: 4},
	}
}

// TestServiceZeroAlloc is the service half of the allocation gate: after
// warmup, a Service stepped in crsimd's 256-cycle batches with the
// watchdog as its monitor allocates nothing — trace replay, the
// admission gate, delivery accounting and the stream hash, the sampler
// once its ring is full, the controller's window scoring and the
// kernel's tear-down and hazard paths beneath them. The count is exact
// over 16 batches, and the window must advance every counter it names,
// so the gate is shown to run those paths rather than pass because it
// missed them.
func TestServiceZeroAlloc(t *testing.T) {
	svc, err := NewService(daemonGateCfg())
	if err != nil {
		t.Fatal(err)
	}
	dog := invariant.New(invariant.Config{CheckEvery: 64})
	svc.Network().SetMonitor(dog)
	const (
		kills = iota
		fkills
		hazardFailures
		hazardRepairs
		shed
		scans
		nCounters
	)
	names := [nCounters]string{"kills", "fkills", "hazard failures", "hazard repairs", "shed", "watchdog scans"}
	counters := func() [nCounters]int64 {
		is := svc.Network().InjectorStats()
		fails, repairs := svc.Network().HazardCounts()
		return [nCounters]int64{is.Kills, is.FKills, fails, repairs, svc.deg.Shed(), dog.Scans()}
	}
	// Warmup: the 512-slot sample ring fills at cycle 51 200; by cycle
	// 102 400 the trace has looped a dozen times, every receiver has
	// heard from most sources, and the queues and scratch lists have met
	// their high-water marks.
	for i := 0; i < 384; i++ {
		if err := svc.Step(256); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's unmeasured first call is the last of the warmup.
	var before, after [nCounters]int64
	window := func() {
		before = counters()
		for i := 0; i < 16; i++ {
			if err := svc.Step(256); err != nil {
				t.Fatal(err)
			}
		}
		after = counters()
	}
	if allocs := testing.AllocsPerRun(1, window); allocs > 0 {
		t.Fatalf("service step allocates: %.0f allocations in 16 batches of 256 cycles, want 0", allocs)
	}
	for i, name := range names {
		if after[i] == before[i] {
			t.Errorf("%s did not move in the gated window (%d); the gate does not reach that path", name, after[i])
		}
	}
}
