// Command crsim runs one network simulation and prints its metrics.
//
// Examples:
//
//	crsim -topo torus -k 16 -dims 2 -protocol cr -load 0.5
//	crsim -protocol fcr -fault-rate 1e-4 -load 0.4 -msglen 32
//	crsim -protocol plain -routing dor -bufdepth 16 -load 0.7
package main

import (
	"flag"
	"fmt"
	"os"

	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/topology"
)

func main() {
	var (
		topoName  = flag.String("topo", "torus", "topology: torus, mesh, hypercube")
		k         = flag.Int("k", 16, "radix (nodes per dimension) for torus/mesh")
		dims      = flag.Int("dims", 2, "dimensions (torus/mesh) or hypercube order")
		protocol  = flag.String("protocol", "cr", "protocol: plain, cr, fcr")
		algName   = flag.String("routing", "", "routing: adaptive, dor, duato (default: adaptive for cr/fcr, dor for plain)")
		vcs       = flag.Int("vcs", 0, "virtual channels per port (0 = algorithm minimum)")
		bufDepth  = flag.Int("bufdepth", 2, "flit buffer depth per virtual channel")
		injCh     = flag.Int("inj", 1, "injection channels per node")
		ejCh      = flag.Int("ej", 1, "ejection channels per node")
		load      = flag.Float64("load", 0.5, "offered load as a fraction of capacity")
		msgLen    = flag.Int("msglen", 16, "message length in flits")
		pattern   = flag.String("pattern", "uniform", "traffic: uniform, transpose, bit-reversal, bit-complement, hotspot")
		timeout   = flag.Int("timeout", 0, "CR kill timeout in cycles (0 = length x VCs rule)")
		backoff   = flag.String("backoff", "exp", "retransmission gap: exp or a static cycle count")
		faultRate = flag.Float64("fault-rate", 0, "transient corruption probability per flit-hop")
		warmup    = flag.Int64("warmup", 2000, "warmup cycles")
		measure   = flag.Int64("measure", 10000, "measurement cycles")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		csv       = flag.Bool("csv", false, "print a CSV row instead of the report")
		heatmap   = flag.Bool("heatmap", false, "print a per-node link-utilization heatmap (2-D grids)")
	)
	flag.Parse()

	cfg, err := buildConfig(*topoName, *k, *dims, *protocol, *algName, *vcs, *bufDepth,
		*injCh, *ejCh, *timeout, *backoff, *faultRate, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crsim:", err)
		os.Exit(2)
	}
	m, net, err := sim.RunWithNetwork(sim.Config{
		Net:           cfg,
		Pattern:       *pattern,
		Load:          *load,
		MsgLen:        *msgLen,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crsim:", err)
		os.Exit(1)
	}
	if *heatmap {
		if err := printHeatmap(cfg, net); err != nil {
			fmt.Fprintln(os.Stderr, "crsim:", err)
			os.Exit(1)
		}
	}
	if *csv {
		fmt.Printf("%s,%s,%v,%v,%v,%v,%d,%d,%v,%v,%v\n",
			cfg.Topo.Name(), *protocol, *load, m.Throughput, m.AvgLatency,
			m.P95Latency, m.Delivered, m.Censored, m.KillsPerMsg, m.RetriesPerMsg, m.PadOverhead)
		return
	}
	printReport(cfg, *pattern, *load, *msgLen, m)
}

func buildConfig(topoName string, k, dims int, protocol, algName string, vcs, bufDepth,
	injCh, ejCh, timeout int, backoff string, faultRate float64, seed uint64) (network.Config, error) {

	topo, err := topology.ByName(topoName, k, dims)
	if err != nil {
		return network.Config{}, err
	}

	var proto core.Protocol
	switch protocol {
	case "plain":
		proto = core.Plain
	case "cr":
		proto = core.CR
	case "fcr":
		proto = core.FCR
	default:
		return network.Config{}, fmt.Errorf("unknown protocol %q", protocol)
	}

	if algName == "" {
		if proto == core.Plain {
			algName = "dor"
		} else {
			algName = "adaptive"
		}
	}
	var alg routing.Algorithm
	switch algName {
	case "adaptive":
		alg = routing.MinimalAdaptive{}
	case "dor":
		alg = routing.DOR{}
	case "duato":
		alg = routing.Duato{AdaptiveVCs: 1}
	default:
		return network.Config{}, fmt.Errorf("unknown routing %q", algName)
	}

	b := core.Backoff{Kind: core.BackoffExponential, Gap: 8}
	if backoff != "exp" {
		var gap int
		if _, err := fmt.Sscanf(backoff, "%d", &gap); err != nil || gap < 1 {
			return network.Config{}, fmt.Errorf("bad backoff %q (want \"exp\" or a positive integer)", backoff)
		}
		b = core.Backoff{Kind: core.BackoffStatic, Gap: gap}
	}

	cfg := network.Config{
		Topo:              topo,
		Alg:               alg,
		Protocol:          proto,
		VCs:               vcs,
		BufDepth:          bufDepth,
		InjectionChannels: injCh,
		EjectionChannels:  ejCh,
		Timeout:           timeout,
		Backoff:           b,
		TransientRate:     faultRate,
		Seed:              seed,
	}
	return cfg, cfg.Validate()
}

func printReport(cfg network.Config, pattern string, load float64, msgLen int, m sim.Metrics) {
	vcs := cfg.VCs
	if vcs == 0 {
		vcs = cfg.Alg.MinVCs(cfg.Topo)
	}
	fmt.Printf("network:   %s, %s routing, protocol %s, %d VC x %d flits\n",
		cfg.Topo.Name(), cfg.Alg.Name(), cfg.Protocol, vcs, cfg.BufDepth)
	fmt.Printf("workload:  %s, %d-flit messages, offered %.2f of capacity (%.4f flits/node/cycle)\n",
		pattern, msgLen, load, m.OfferedLoad)
	fmt.Printf("delivered: %d messages (%d censored)\n", m.Delivered, m.Censored)
	fmt.Printf("throughput: %.4f flits/node/cycle (%.1f%% of capacity)\n", m.Throughput, 100*m.ThroughputFrac)
	fmt.Printf("latency:   avg %.1f  p50 %d  p95 %d  p99 %d  max %d cycles\n",
		m.AvgLatency, m.P50Latency, m.P95Latency, m.P99Latency, m.MaxLatency)
	fmt.Printf("protocol:  %.4f kills/msg, %.4f retries/msg, %.4f fkills/msg, pad overhead %.3f\n",
		m.KillsPerMsg, m.RetriesPerMsg, m.FKillsPerMsg, m.PadOverhead)
	if m.TransientFaults > 0 || m.DeliveredCorrupt > 0 {
		fmt.Printf("faults:    %d injected, %d corrupt deliveries, %d late fkills\n",
			m.TransientFaults, m.DeliveredCorrupt, m.LateFKills)
	}
	if m.FailedMessages > 0 {
		fmt.Printf("WARNING:   %d messages abandoned after max retries\n", m.FailedMessages)
	}
	if m.Saturated() {
		fmt.Println("note:      network is saturated at this load")
	}
}

// printHeatmap renders per-node outgoing-link utilization for 2-D grids
// as an ASCII intensity map (relative to the busiest node).
func printHeatmap(cfg network.Config, net *network.Network) error {
	g, ok := cfg.Topo.(*topology.Grid)
	if !ok || g.Dims() != 2 {
		return fmt.Errorf("heatmap needs a 2-D torus or mesh, have %s", cfg.Topo.Name())
	}
	perNode := make([]int64, g.Nodes())
	for _, ll := range net.LinkLoads() {
		perNode[ll.Link.Node] += ll.Flits
	}
	var max int64 = 1
	for _, v := range perNode {
		if v > max {
			max = v
		}
	}
	const ramp = " .:-=+*#%@"
	fmt.Println("link-utilization heatmap (rows = y, columns = x; @ = busiest node):")
	for y := g.Radix() - 1; y >= 0; y-- {
		fmt.Printf("  y=%2d  ", y)
		for x := 0; x < g.Radix(); x++ {
			v := perNode[g.Node(x, y)]
			idx := int(v * int64(len(ramp)-1) / max)
			fmt.Printf("%c", ramp[idx])
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}
