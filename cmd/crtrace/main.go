// Command crtrace runs a short simulation and prints the event timeline
// of one message — every injection, hop arrival, corruption, tear-down
// signal, ejection and delivery across all of its transmission attempts.
// A debugging lens on the CR/FCR protocol in action.
//
// Examples:
//
//	crtrace -k 8 -load 0.6                # trace the first killed message
//	crtrace -k 8 -msg 42                  # trace message id 42
//	crtrace -fault-rate 1e-3 -protocol fcr  # watch an FKILL retransmission
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "crtrace: %v\n", err)
		os.Exit(2)
	}
}

// run is main with its dependencies injected so tests can drive the
// whole flag-to-trace path and inspect the output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crtrace", flag.ContinueOnError)
	var (
		k         = fs.Int("k", 8, "torus radix")
		protocol  = fs.String("protocol", "cr", "protocol: cr or fcr")
		load      = fs.Float64("load", 0.6, "offered load (fraction of capacity)")
		msgLen    = fs.Int("msglen", 16, "message length in flits")
		faultRate = fs.Float64("fault-rate", 0, "transient corruption rate per flit-hop")
		msgID     = fs.Int64("msg", 0, "message id to trace (0 = first message that gets killed or FKILLed)")
		cycles    = fs.Int64("cycles", 20000, "maximum cycles to simulate")
		seed      = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	proto := core.CR
	if *protocol == "fcr" {
		proto = core.FCR
	} else if *protocol != "cr" {
		return fmt.Errorf("protocol must be cr or fcr")
	}
	topo, err := topology.ByName("torus", *k, 2)
	if err != nil {
		return err
	}
	net := network.New(network.Config{
		Topo:          topo,
		Alg:           routing.MinimalAdaptive{},
		Protocol:      proto,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: *faultRate,
		Seed:          *seed,
	})

	// Record all events; select the interesting message afterwards.
	var events []network.Event
	net.SetTracer(func(e network.Event) { events = append(events, e) })

	gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, *load, *msgLen, *seed+7)
	target := *msgID
	delivered := false
	for c := int64(0); c < *cycles && !delivered; c++ {
		for node := 0; node < topo.Nodes(); node++ {
			if m, ok := gen.Tick(topology.NodeID(node), c); ok {
				net.SubmitMessage(m)
			}
		}
		net.Step()
		for _, e := range events[len(events)-min(len(events), 512):] {
			if target == 0 && (e.Kind == network.EvKill || e.Kind == network.EvFKill) && e.Worm != 0 {
				target = int64(e.Worm.Message())
			}
		}
		for _, d := range net.DrainDeliveries() {
			if target != 0 && int64(d.Msg) == target {
				delivered = true
			}
		}
	}
	if target == 0 {
		fmt.Fprintln(stdout, "crtrace: no message was killed in the window; rerun with higher -load or -fault-rate")
		return nil
	}

	fmt.Fprintf(stdout, "trace of message %d (%s, %s, load %.2f):\n", target, topo.Name(), proto, *load)
	shown := 0
	for _, e := range events {
		if int64(e.Worm.Message()) != target {
			continue
		}
		// Compress per-hop arrivals of body flits: show head/tail flits
		// and every protocol event, skip interior data flit arrivals.
		if (e.Kind == network.EvArrive || e.Kind == network.EvEject) && e.Seq > 0 {
			continue
		}
		if e.Kind == network.EvInject && e.Seq > 0 {
			continue
		}
		fmt.Fprintln(stdout, " ", e)
		shown++
	}
	fmt.Fprintf(stdout, "(%d events shown; head-flit hops and protocol events only)\n", shown)
	if !delivered {
		fmt.Fprintln(stdout, "note: message was still undelivered when tracing stopped")
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
