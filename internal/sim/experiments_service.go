package sim

import (
	"bytes"

	"crnet/internal/faults"
	"crnet/internal/network"
	"crnet/internal/stats"
	"crnet/internal/traffic"
	"crnet/internal/workload"
)

// E27TraceReplay measures end-to-end latency under materialized
// trace-driven workloads — the service path (internal/workload +
// sim.Service) rather than the open-loop generators the other
// experiments use. Each trace is generated once and replayed through
// both CR and FCR-with-corruption, so the two schemes see literally
// the same message sequence. Statistics cover the full run (no warmup
// split: a replay is a finite artifact, not a stationary process). The
// stream hash pins the delivery stream byte-for-byte in results files.
func E27TraceReplay(s Scale) *stats.Table {
	t := stats.NewTable("E27: trace-driven workload replay (load 0.4, full-run stats)",
		"workload", "scheme", "delivered", "corrupt", "avg_latency", "p95", "p99", "stream_hash")
	topo := s.torus()
	cycles := s.Warmup + s.Measure
	capacity := traffic.CapacityFlitsPerNode(topo)

	gens := []struct {
		name string
		gen  func(workload.TraceSpec) *workload.Trace
	}{
		{"diurnal", workload.GenDiurnal},
		{"hotspot", workload.GenHotspot},
		{"bursty", workload.GenBursty},
		{"incast", workload.GenIncast},
	}
	nets := []struct {
		name string
		cfg  func() network.Config
	}{
		{"CR", s.crNet},
		{"FCR+corrupt", func() network.Config {
			c := s.fcrNet()
			c.TransientRate = 1e-4
			return c
		}},
	}
	// One job per (trace, scheme); the two schemes of a workload share
	// the one read-only trace.
	var cfgs []ServiceConfig
	for _, g := range gens {
		trace := g.gen(workload.TraceFor(topo, 0.4, s.MsgLen, cycles, s.Seed+101, capacity))
		for _, nc := range nets {
			cfgs = append(cfgs, ServiceConfig{Net: nc.cfg(), Trace: trace, Loop: true})
		}
	}
	sts := sweepJobs(s, "E27", len(cfgs), func(i int, _ <-chan struct{}) (ServiceStatus, error) {
		svc, err := NewService(cfgs[i])
		if err == nil {
			err = svc.Step(cycles)
		}
		if err != nil {
			return ServiceStatus{}, err
		}
		return svc.Status(), nil
	})
	for i, st := range sts {
		t.AddRow(gens[i/len(nets)].name, nets[i%len(nets)].name, st.Delivered, st.Corrupt,
			st.AvgLatency, st.P95Latency, st.P99Latency, st.StreamHash)
	}
	return t
}

// E28KillResume validates the checkpoint/restore subsystem end to end:
// for each scenario, an unbroken run races a run that is checkpointed
// at cycles/3, restored into a freshly built service, and continued.
// The verdict is PASS only if the delivery stream hashes AND the full
// serialized final states are byte-identical — under clean traffic,
// under transient corruption, and under a permanent fault timeline
// whose events fire on both sides of the checkpoint.
func E28KillResume(s Scale) *stats.Table {
	t := stats.NewTable("E28: kill-resume equivalence — restored run vs unbroken run",
		"scenario", "ckpt_cycle", "cycles", "delivered", "stream_hash", "verdict")
	topo := s.torus()
	cycles := s.Measure
	ckptAt := cycles / 3
	capacity := traffic.CapacityFlitsPerNode(topo)
	spec := func(seed uint64) workload.TraceSpec {
		return workload.TraceFor(topo, 0.3, s.MsgLen, cycles, seed, capacity)
	}

	scenarios := []struct {
		name  string
		build func() ServiceConfig
	}{
		{"uniform/CR", func() ServiceConfig {
			return ServiceConfig{Net: s.crNet(), Trace: workload.GenUniform(spec(s.Seed + 7)), Loop: true}
		}},
		{"hotspot/FCR+corrupt", func() ServiceConfig {
			c := s.fcrNet()
			c.TransientRate = 2e-4
			return ServiceConfig{Net: c, Trace: workload.GenHotspot(spec(s.Seed + 8)), Loop: true}
		}},
		{"bursty/FCR+faults", func() ServiceConfig {
			c := s.fcrNet()
			c.TransientRate = 2e-4
			// A fresh Schedule per call: the cursor is mutable run state,
			// and the timeline straddles the checkpoint cycle.
			c.Faults = faults.NewSchedule([]faults.Event{
				{Cycle: cycles / 4, Link: faults.LinkID{Node: 1, Port: 0}},
				{Cycle: cycles / 2, Link: faults.LinkID{Node: 1, Port: 0}, Up: true},
			})
			return ServiceConfig{Net: c, Trace: workload.GenBursty(spec(s.Seed + 9)), Loop: true,
				SampleEvery: 500}
		}},
	}
	type outcome struct {
		ref   ServiceStatus
		equal bool
	}
	res := sweepJobs(s, "E28", len(scenarios), func(i int, _ <-chan struct{}) (outcome, error) {
		// started builds a fresh service, optionally restores ckpt into
		// it, and advances it n cycles.
		started := func(ckpt []byte, n int64) (*Service, error) {
			svc, err := NewService(scenarios[i].build())
			if err == nil && ckpt != nil {
				err = svc.Restore(ckpt)
			}
			if err == nil {
				err = svc.Step(n)
			}
			return svc, err
		}
		ref, err := started(nil, cycles)
		if err != nil {
			return outcome{}, err
		}
		first, err := started(nil, ckptAt)
		if err != nil {
			return outcome{}, err
		}
		resumed, err := started(first.Save(), cycles-ckptAt)
		if err != nil {
			return outcome{}, err
		}
		equal := ref.StreamHash() == resumed.StreamHash() && bytes.Equal(ref.Save(), resumed.Save())
		return outcome{ref.Status(), equal}, nil
	})
	for i, r := range res {
		t.AddRow(scenarios[i].name, ckptAt, cycles, r.ref.Delivered, r.ref.StreamHash, stats.Verdict(r.equal))
	}
	return t
}
