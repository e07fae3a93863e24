// Command crtopo inspects a topology: size, diameter, average distance,
// uniform capacity, and optionally the dimension-order route and minimal
// port sets between two nodes — a debugging aid for routing work.
//
// Examples:
//
//	crtopo -topo torus -k 16 -dims 2
//	crtopo -topo torus -k 8 -dims 2 -from 0 -to 36
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "crtopo: %v\n", err)
		os.Exit(2)
	}
}

// run is main with its dependencies injected so tests can drive the
// whole flag-to-report path and inspect the output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crtopo", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "torus", "topology: torus, mesh, hypercube")
		k        = fs.Int("k", 8, "radix for torus/mesh")
		dims     = fs.Int("dims", 2, "dimensions (or hypercube order)")
		from     = fs.Int("from", -1, "source node for route display")
		to       = fs.Int("to", -1, "destination node for route display")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := topology.ByName(*topoName, *k, *dims)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "topology:      %s\n", topo.Name())
	fmt.Fprintf(stdout, "nodes:         %d\n", topo.Nodes())
	fmt.Fprintf(stdout, "degree:        %d ports/node\n", topo.Degree())
	fmt.Fprintf(stdout, "diameter:      %d hops\n", topo.Diameter())
	fmt.Fprintf(stdout, "avg distance:  %.3f hops (distinct pairs)\n", topo.AverageDistance())
	fmt.Fprintf(stdout, "capacity:      %.4f flits/node/cycle (uniform traffic)\n", traffic.CapacityFlitsPerNode(topo))

	if *from < 0 || *to < 0 {
		return nil
	}
	src, dst := topology.NodeID(*from), topology.NodeID(*to)
	if int(src) >= topo.Nodes() || int(dst) >= topo.Nodes() {
		return fmt.Errorf("node out of range")
	}
	fmt.Fprintf(stdout, "\nroute %d -> %d (distance %d):\n", src, dst, topo.Distance(src, dst))

	// Dimension-order walk with the candidate sets at each hop.
	alg := routing.DOR{}
	adaptive := routing.MinimalAdaptive{}
	cur := src
	inPort, inVC := topology.InvalidPort, -1
	for cur != dst {
		req := routing.Request{
			Topo: topo, Cur: cur, Dst: dst,
			InPort: inPort, InVC: inVC, NumVCs: alg.MinVCs(topo),
		}
		dor := alg.Route(req, nil)
		req.NumVCs = 1
		min := adaptive.Route(req, nil)
		if len(dor) == 0 {
			fmt.Fprintf(stdout, "  %4d: no DOR candidate (unreachable)\n", cur)
			break
		}
		c := dor[0]
		next, _ := topo.Neighbor(cur, c.Port)
		fmt.Fprintf(stdout, "  %4d: DOR -> port %d vc %d (to %d); adaptive ports: %s\n",
			cur, c.Port, c.VC, next, portList(min))
		inPort = topo.ReversePort(cur, c.Port)
		inVC = c.VC
		cur = next
	}
	fmt.Fprintf(stdout, "  %4d: destination\n", dst)
	return nil
}

func portList(cands []routing.Candidate) string {
	seen := map[topology.Port]bool{}
	s := ""
	for _, c := range cands {
		if seen[c.Port] {
			continue
		}
		seen[c.Port] = true
		if s != "" {
			s += ","
		}
		s += fmt.Sprint(int(c.Port))
	}
	if s == "" {
		return "(none)"
	}
	return s
}
