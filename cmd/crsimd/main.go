// Command crsimd runs a simulation as a long-lived service: a network
// fed by a trace-driven workload (generated from the flags on every
// start, so a restart replays the schedule its checkpoint names),
// stepping continuously, checkpointing its complete state on an
// interval and on SIGINT/SIGTERM, and restoring from the latest
// checkpoint on start. Killing the process
// and restarting it is therefore lossless — the resumed run is
// byte-identical to one that never stopped (the sim.Service resume
// guarantee), which the final stream-hash line makes checkable.
//
// With -listen the service exposes live observability over HTTP:
// /status (JSON summary), /metrics (current registry values, text) and
// /series (sampled time-series, JSON), and the Go runtime's profiles
// under /debug/pprof/, so the daemon itself can be profiled in place:
//
//	go tool pprof http://127.0.0.1:8080/debug/pprof/profile?seconds=10
//
// A load-coupled failure process (-hazard-lambda0/-hazard-alpha) and
// the graceful-degradation controller (-slo-p95) turn the daemon into
// an availability testbed: /status reports the controller state
// (healthy/degraded/shedding), shed counts, hazard fault events and
// the served-traffic availability ratio.
//
// Examples:
//
//	crsimd -k 8 -workload diurnal -cycles 50000 -checkpoint-dir ckpt
//	crsimd -k 8 -workload hotspot -protocol fcr -fault-rate 1e-4 \
//	    -checkpoint-dir ckpt -checkpoint-every 5000 -listen 127.0.0.1:8080
//	crsimd -k 8 -protocol fcr -hazard-lambda0 1e-6 -hazard-alpha 6 \
//	    -slo-p95 800 -fail-budget 4 -cycles 100000 -listen 127.0.0.1:8080
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
	"crnet/internal/workload"

	"flag"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintf(os.Stderr, "crsimd: %v\n", err)
		os.Exit(2)
	}
}

// generators maps -workload names to trace generators.
var generators = map[string]func(workload.TraceSpec) *workload.Trace{
	"uniform":   workload.GenUniform,
	"bursty":    workload.GenBursty,
	"diurnal":   workload.GenDiurnal,
	"hotspot":   workload.GenHotspot,
	"incast":    workload.GenIncast,
	"permstorm": workload.GenPermutationStorm,
}

// run is main with its dependencies injected: args and stdout as in the
// other binaries, plus the signal channel so tests can deliver a
// SIGTERM and observe the checkpoint-and-exit path without killing the
// test process.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("crsimd", flag.ContinueOnError)
	var (
		topoName  = fs.String("topo", "torus", "topology: torus, mesh, hypercube")
		k         = fs.Int("k", 8, "radix for torus/mesh")
		dims      = fs.Int("dims", 2, "dimensions (or hypercube order)")
		protocol  = fs.String("protocol", "cr", "protocol: cr or fcr")
		faultRate = fs.Float64("fault-rate", 0, "transient corruption probability per flit-hop")

		hazardLambda0 = fs.Float64("hazard-lambda0", 0, "base link failure intensity per cycle for the load-coupled hazard (0: hazard off)")
		hazardAlpha   = fs.Float64("hazard-alpha", 0, "load-coupling exponent: failure intensity = lambda0 * exp(alpha * utilization)")
		hazardMTTR    = fs.Float64("hazard-mttr", 2000, "mean link repair time in cycles for hazard failures")

		sloP95     = fs.Int64("slo-p95", 0, "delivered-latency p95 SLO in cycles; enables the graceful-degradation controller (0: off)")
		sloWindow  = fs.Int64("slo-window", 512, "degradation control-window length in cycles")
		failBudget = fs.Int64("fail-budget", 0, "fault events per window that breach the SLO (0: failure-density signal off)")

		workloadName = fs.String("workload", "uniform", "trace workload: uniform, bursty, diurnal, hotspot, incast, permstorm")
		load         = fs.Float64("load", 0.4, "offered load (fraction of capacity)")
		msgLen       = fs.Int("msglen", 16, "message length in flits")
		span         = fs.Int64("span", 20000, "generated trace span in cycles (loops forever)")
		seed         = fs.Uint64("seed", 1, "seed for the network and the trace generator")

		cycles    = fs.Int64("cycles", 0, "stop once the cycle counter reaches this (0: run until signal)")
		batch     = fs.Int64("batch", 256, "cycles simulated per step batch (checkpoint/serve granularity)")
		ckptDir   = fs.String("checkpoint-dir", "", "checkpoint directory (empty: checkpointing off)")
		ckptEvery = fs.Int64("checkpoint-every", 10000, "checkpoint interval in cycles")

		listen      = fs.String("listen", "", "serve /status /metrics /series and /debug/pprof/ on this address")
		sampleEvery = fs.Int64("sample-every", 100, "metrics sampling interval in cycles (0: off)")
		sampleCap   = fs.Int("sample-cap", 512, "sample ring capacity")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := topology.ByName(*topoName, *k, *dims)
	if err != nil {
		return err
	}

	cfg := network.Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: *faultRate,
		Seed:          *seed,
		Check:         true,
	}
	switch *protocol {
	case "cr":
		cfg.Protocol = core.CR
	case "fcr":
		cfg.Protocol = core.FCR
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	if *hazardLambda0 > 0 {
		cfg.Hazard = &faults.HazardSpec{
			LinkLambda0: *hazardLambda0,
			Alpha:       *hazardAlpha,
			LinkMTTR:    *hazardMTTR,
			Seed:        *seed,
		}
	}

	gen, ok := generators[*workloadName]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	trace := gen(workload.TraceFor(topo, *load, *msgLen, *span, *seed, traffic.CapacityFlitsPerNode(topo)))

	var degrade *sim.DegradeConfig
	if *sloP95 > 0 {
		degrade = &sim.DegradeConfig{
			LatencySLO: *sloP95,
			Window:     *sloWindow,
			FailBudget: *failBudget,
		}
	}
	svc, err := sim.NewService(sim.ServiceConfig{
		Net:         cfg,
		Trace:       trace,
		Loop:        true,
		SampleEvery: *sampleEvery,
		SampleCap:   *sampleCap,
		Degrade:     degrade,
	})
	if err != nil {
		return err
	}
	srv := &server{svc: svc}

	// Attach to the latest checkpoint, if any.
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o777); err != nil {
			return err
		}
		if path, cycle, ok := snapshot.Latest(*ckptDir); ok {
			_, payload, err := snapshot.ReadFile(path)
			if err != nil {
				return fmt.Errorf("restore %s: %w", path, err)
			}
			if err := svc.Restore(payload); err != nil {
				return fmt.Errorf("restore %s: %w", path, err)
			}
			fmt.Fprintf(stdout, "restored cycle=%d from %s\n", cycle, path)
		}
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
		go http.Serve(ln, srv.mux()) //nolint:errcheck — dies with the process
	}

	checkpoint := func(why string) error {
		if *ckptDir == "" {
			return nil
		}
		cycle := svc.Cycle()
		path := filepath.Join(*ckptDir, snapshot.FileName(cycle))
		if err := snapshot.WriteFile(path, cycle, svc.Save()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint cycle=%d reason=%s file=%s\n", cycle, why, path)
		return nil
	}

	lastCkpt := svc.Cycle()
	for {
		select {
		case sig := <-stop:
			fmt.Fprintf(stdout, "signal %v: checkpointing and exiting\n", sig)
			return checkpoint("signal")
		default:
		}
		n := *batch
		if *cycles > 0 {
			if left := *cycles - svc.Cycle(); left < n {
				n = left
			}
		}
		if n <= 0 {
			break
		}
		srv.mu.Lock()
		err := svc.Step(n)
		srv.mu.Unlock()
		if err != nil {
			// Preserve the wreckage for post-mortem before reporting.
			if cerr := checkpoint("unhealthy"); cerr != nil {
				return fmt.Errorf("%w (checkpoint also failed: %v)", err, cerr)
			}
			return err
		}
		if *ckptEvery > 0 && svc.Cycle()-lastCkpt >= *ckptEvery {
			if err := checkpoint("interval"); err != nil {
				return err
			}
			lastCkpt = svc.Cycle()
		}
	}

	if err := checkpoint("final"); err != nil {
		return err
	}
	st := svc.Status()
	fmt.Fprintf(stdout, "done cycle=%d delivered=%d corrupt=%d avg_latency=%.2f p95=%d stream_hash=%s\n",
		st.Cycle, st.Delivered, st.Corrupt, st.AvgLatency, st.P95Latency, st.StreamHash)
	if st.Degrade != "" {
		fmt.Fprintf(stdout, "degrade state=%s shed=%d breached_windows=%d fault_events=%d availability=%.6f\n",
			st.Degrade, st.Shed, st.BreachedWindows, st.FaultEvents, st.Availability)
	}
	return nil
}

// server wraps the service with the mutex shared between the step loop
// and the HTTP handlers: batches step inside the lock, handlers read
// inside it, so every response is a consistent between-batches view.
type server struct {
	mu  sync.Mutex
	svc *sim.Service
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	// pprof.Index serves every named profile (heap, goroutine, ...)
	// under its prefix; the rest are the handlers it does not cover.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.svc.Status()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck — client went away
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	reg := s.svc.Registry()
	if reg == nil {
		s.mu.Unlock()
		http.Error(w, "sampling disabled (-sample-every 0)", http.StatusNotFound)
		return
	}
	names, values := reg.Names(), reg.Sample()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i, name := range names {
		fmt.Fprintf(w, "%s %g\n", name, values[i])
	}
}

func (s *server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	series := s.svc.Series()
	s.mu.Unlock()
	if series == nil {
		http.Error(w, "sampling disabled (-sample-every 0)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(series) //nolint:errcheck — client went away
}
