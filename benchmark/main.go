// Command benchmark is the repository's one performance benchmark: five
// named workloads that drive the simulator through its exported entry
// points, nine end-to-end metrics, and per-layer attribution measured
// from this package's own files. See README.md.
//
//	go run ./benchmark --workload sat16 --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -all -seed 1 -out benchmark/out
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed region of
// every workload is sized to take about this long on the 2-core
// reference container.
const defaultSeconds = 10

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed     = flag.Uint64("seed", 1, "feeds every traffic generator, trace spec and fault seed")
		seconds  = flag.Int("seconds", defaultSeconds, "size of the timed region; simulated work scales with it")
		trace    = flag.Int("trace", 0, "1 records spans, runs the micro-probes and prints the per-layer metrics; 0 prints the end-to-end metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files and checkpoints")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in a fresh child process, and print one document")
		runs     = flag.Int("runs", 1, "with -all: untraced runs per workload (the document keeps every value and their median)")
		compare  = flag.Bool("compare", false, "compare two -all documents given as arguments")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir}
	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *all:
		err = allMain(opt, *runs)
	case *workload != "":
		err = oneMain(*workload, opt)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload executes one workload in this process.
func runWorkload(name string, opt options) (result, []string, error) {
	w, ok := workloadByName(name)
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	if opt.seconds < 1 {
		return result{}, nil, fmt.Errorf("-seconds %d: must be at least 1", opt.seconds)
	}
	if err := os.MkdirAll(opt.outDir, 0o777); err != nil {
		return result{}, nil, err
	}
	r := newRun(name, opt)
	w.run(r)
	if opt.traced {
		r.probes()
	}
	res, err := r.finish()
	return res, r.failures, err
}

// oneMain runs one workload and prints its result as the last line of
// standard output. A failed check is a non-zero exit with no result.
func oneMain(name string, opt options) error {
	res, failures, err := runWorkload(name, opt)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
		}
		return fmt.Errorf("%s: %d checks failed", name, len(failures))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
