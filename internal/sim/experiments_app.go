package sim

import (
	"fmt"

	"crnet/internal/network"
	"crnet/internal/stats"
	"crnet/internal/topology"
	"crnet/internal/workload"
)

// E19Applications measures closed-loop application communication —
// stencil halo exchange, personalized all-to-all and client/server RPC —
// to completion on CR and on the DOR baseline. This is the software-level
// view the paper's introduction motivates: the network's job is to finish
// the application's communication phases, and CR's claim is that it does
// so without the deadlock-avoidance hardware or software retry layers.
func E19Applications(s Scale) *stats.Table {
	t := stats.NewTable("E19: application workload completion time",
		"workload", "scheme", "cycles", "messages", "kills", "cycles/msg")
	g := s.torus()
	budget := int64(200) * int64(g.Nodes()) * 40 // generous; runs complete far earlier

	mkWorkloads := func() []workload.Workload {
		return []workload.Workload{
			workload.NewStencil(g, 10, s.MsgLen),
			workload.NewAllToAll(g.Nodes(), s.MsgLen, 4),
			workload.NewRPC(g.Nodes(), []topology.NodeID{0, topology.NodeID(g.Nodes() / 2)}, 8, 2, s.MsgLen),
		}
	}
	schemes := []struct {
		name string
		cfg  network.Config
	}{
		{"CR", s.crNet()},
		{"DOR", s.dorNet(1, 2)},
	}
	// One job per (workload, scheme), each with a workload instance of
	// its own: a workload carries the run's progress.
	type job struct {
		w      workload.Workload
		scheme string
		cfg    network.Config
	}
	var jobs []job
	for i := range mkWorkloads() {
		for _, sc := range schemes {
			jobs = append(jobs, job{mkWorkloads()[i], sc.name, sc.cfg})
		}
	}
	results := sweepJobs(s, "E19", len(jobs), func(i int, _ <-chan struct{}) (workload.Result, error) {
		return workload.Drive(network.New(jobs[i].cfg), jobs[i].w, budget)
	})
	for i, res := range results {
		cycles := fmt.Sprint(res.CompletionCycles)
		if !res.Completed {
			cycles = "DNF"
		}
		perMsg := float64(res.CompletionCycles) / float64(res.Messages)
		t.AddRow(jobs[i].w.Name(), jobs[i].scheme, cycles, res.Messages, res.Kills, perMsg)
	}
	return t
}
