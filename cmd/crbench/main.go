// Command crbench regenerates the paper's tables and figures.
//
// Each experiment (E1..E32, see DESIGN.md) sweeps the parameter the
// corresponding figure plots and prints the series as an aligned table
// (or CSV with -csv). -scale quick runs an 8x8 torus with short windows;
// -scale full reproduces the paper's 16x16 torus. -chaos selects the
// chaos/robustness subset (E22-E24, E29-E30); -bisect runs checkpoint
// bisection forensics (see sim.Bisect) instead of experiments.
//
// Every experiment runs its simulations over one worker pool
// (-parallel, default all cores); results are byte-identical for every
// worker count, so -parallel only changes wall-clock. Independently,
// -shards N splits each simulated network itself into N node ranges
// stepped by N workers (byte-identical to the one-range default) —
// useful when one big network, not many points, dominates the run.
// Profiling flags force both back to 1 for a clean call tree.
// Progress and timing go to stderr, result tables to stdout. -json additionally
// writes a versioned machine-readable artifact (schema, git version,
// config echo, per-point wall-clock, per-point failures).
//
// Sweeps are crash-proof: a point that panics, errors, trips the
// invariant watchdog, or exceeds -point-timeout is recorded in the
// artifact's errors section and the remaining points still run. crbench
// exits non-zero when a table's pass or verdict column (E14, E24, E28,
// E30, E32) contains a FAIL or any sweep point failed, so CI catches
// broken protocol claims even though the run itself completes.
//
// Examples:
//
//	crbench -list
//	crbench -exp E3
//	crbench -exp E5 -parallel 8
//	crbench -chaos -point-timeout 5m -json chaos.json
//	crbench -exp all -scale full -csv > results.csv
//	crbench -exp E1,E5,E20 -json bench.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/router"
	"crnet/internal/sim"
	"crnet/internal/stats"
)

// selectExperiments resolves an -exp argument: "all", a single id, or a
// comma-separated id list.
func selectExperiments(arg string) ([]sim.Experiment, error) {
	if strings.EqualFold(arg, "all") {
		return sim.Experiments, nil
	}
	var out []sim.Experiment
	for _, part := range strings.Split(arg, ",") {
		id := strings.ToUpper(strings.TrimSpace(part))
		e, ok := sim.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", part)
		}
		out = append(out, e)
	}
	return out, nil
}

// failRows names a table's failing rows — E14/E24/E30's properties,
// E28/E32's verdicts — by their first cell.
func failRows(t *stats.Table) []string {
	var out []string
	for _, row := range t.Failures() {
		out = append(out, row[0])
	}
	return out
}

func main() {
	// All real work happens in run so that deferred profile/trace
	// finalizers fire before the process exits (os.Exit skips defers).
	os.Exit(run())
}

// run returns the process exit code through a named result so the
// deferred profile/trace finalizers can flip a clean run red when a
// profile fails to flush or close — a truncated profile silently
// poisons any perf comparison built on it.
func run() (code int) {
	var (
		expID         = flag.String("exp", "all", "experiment ids (e.g. E3 or E1,E5,E21) or \"all\"")
		chaos         = flag.Bool("chaos", false, "run the chaos/robustness experiments (E22-E24, E29-E30); overrides -exp")
		scale         = flag.String("scale", "quick", "quick (8x8, fast) or full (16x16, paper scale)")
		csv           = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list          = flag.Bool("list", false, "list experiments and exit")
		parallel      = flag.Int("parallel", 0, "sweep worker pool size (0 = all cores, 1 = serial; results identical)")
		shards        = flag.Int("shards", 0, "shard each simulated network across N workers (0/1 = one range, inline on the caller's goroutine; results identical)")
		buforg        = flag.String("buforg", "", "router buffer organization for experiments that don't pick their own: fifo (default), damq or shared — changes results")
		timeout       = flag.Duration("point-timeout", 0, "per-sweep-point wall-clock budget (0 = unbounded); exceeded points are recorded as errors")
		jsonOut       = flag.String("json", "", "also write a versioned JSON results artifact to this file")
		quiet         = flag.Bool("quiet", false, "suppress progress/timing output on stderr")
		tsDir         = flag.String("timeseries", "", "write sampled metric time-series as CSV files into this directory (experiments that sample, e.g. E26)")
		bisect        = flag.Bool("bisect", false, "checkpoint-bisection forensics on the canonical chaos service instead of experiments")
		bisectHorizon = flag.Int64("bisect-horizon", 20000, "detection-pass length in cycles for -bisect")
		bisectCkpt    = flag.Int64("bisect-ckpt", 1024, "checkpoint grid spacing in cycles for -bisect")
		bisectHops    = flag.Int("bisect-hop-budget", 0, "watchdog hop budget for -bisect (0 = honest default; shrink it to plant a tripwire)")
		bisectWindow  = flag.Int("bisect-deadlock-window", 0, "watchdog deadlock window for -bisect (0 = honest default)")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile to this file (forces -parallel 1)")
		memProf       = flag.String("memprofile", "", "write a heap profile to this file (forces -parallel 1)")
		traceOut      = flag.String("trace", "", "write a runtime execution trace to this file (forces -parallel 1)")
	)
	flag.Parse()

	if *list {
		for _, e := range sim.Experiments {
			fmt.Printf("%-4s %-60s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	var s sim.Scale
	switch *scale {
	case "quick":
		s = sim.Quick
	case "full":
		s = sim.Full
	default:
		fmt.Fprintf(os.Stderr, "crbench: unknown scale %q\n", *scale)
		return 2
	}
	// Profiling wants one goroutine doing the simulating, so the profile
	// reads as a single clean call tree: force the harness's serial mode
	// and the cycle kernel's single inline range.
	profiling := *cpuProf != "" || *memProf != "" || *traceOut != ""
	if profiling {
		*parallel = 1
		*shards = 1
	}
	s.Parallel = *parallel
	s.Shards = *shards
	org, err := router.ParseBufferOrg(*buforg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
		return 2
	}
	s.BufOrg = org
	s.PointTimeout = *timeout
	if !*quiet {
		s.Progress = os.Stderr
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "crbench: starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "crbench: closing CPU profile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "crbench: starting trace: %v\n", err)
			return 1
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "crbench: closing trace: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			fail := func(err error) {
				fmt.Fprintf(os.Stderr, "crbench: heap profile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fail(err)
				return
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}

	if *bisect {
		rep, err := sim.Bisect(sim.BisectConfig{
			Service:         sim.DefaultBisectService(s),
			Watchdog:        invariant.Config{HopBudget: *bisectHops, DeadlockWindow: *bisectWindow},
			Horizon:         *bisectHorizon,
			CheckpointEvery: *bisectCkpt,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: bisect: %v\n", err)
			return 1
		}
		fmt.Println(rep.String())
		if rep.Violation != nil {
			return 1
		}
		return 0
	}

	sel := *expID
	if *chaos {
		sel = strings.Join(sim.ChaosExperiments, ",")
	}
	selected, err := selectExperiments(sel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
		return 2
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var art *harness.Artifact
	if *jsonOut != "" {
		art = &harness.Artifact{
			Schema:      harness.SchemaVersion,
			Tool:        "crbench",
			CreatedAt:   time.Now().UTC().Format(time.RFC3339),
			GitDescribe: harness.GitDescribe(),
			Scale: harness.ScaleEcho{
				Name: *scale, K: s.K, MsgLen: s.MsgLen,
				Warmup: s.Warmup, Measure: s.Measure, Loads: s.Loads, Seed: s.Seed,
			},
			Parallel: workers,
		}
	}

	failed := false
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		var sweeps []harness.SweepTiming
		var pointErrs []harness.PointError
		var pointSeries []harness.PointSeries
		if art != nil {
			s.Collect = func(label string, pointMS []float64) {
				sweeps = append(sweeps, harness.SweepTiming{Label: label, PointMS: pointMS})
			}
		}
		if art != nil || *tsDir != "" {
			s.CollectSeries = func(label string, series []harness.PointSeries) {
				pointSeries = append(pointSeries, series...)
			}
		}
		s.CollectErrors = func(label string, errs []harness.PointError) {
			pointErrs = append(pointErrs, errs...)
			for _, pe := range errs {
				fmt.Fprintf(os.Stderr, "%s/%s point %d %s: %s\n", e.ID, label, pe.Index, pe.Kind, pe.Err)
			}
		}
		start := time.Now()
		tbl := e.Run(s)
		elapsed := time.Since(start)
		if *csv {
			fmt.Printf("# %s: %s [%s]\n", e.ID, e.Title, e.Paper)
			fmt.Print(tbl.CSV())
		} else {
			fmt.Print(tbl.String())
		}
		if fr := failRows(tbl); len(fr) != 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: FAIL: %s\n", e.ID, strings.Join(fr, "; "))
		}
		if len(pointErrs) != 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %d sweep point(s) failed\n", e.ID, len(pointErrs))
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done (%s, scale %s, %d workers, %v)\n",
				e.ID, e.Paper, *scale, workers, elapsed.Round(time.Millisecond))
		}
		if *tsDir != "" && len(pointSeries) != 0 {
			if err := writeSeriesCSVs(*tsDir, e.ID, pointSeries); err != nil {
				fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
				return 1
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "%s: wrote %d time-series CSVs to %s\n", e.ID, len(pointSeries), *tsDir)
			}
		}
		if art != nil {
			art.Experiments = append(art.Experiments, harness.ExperimentResult{
				ID: e.ID, Title: e.Title, Paper: e.Paper,
				Table:      tbl.JSON(),
				ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
				Sweeps:     sweeps,
				Errors:     pointErrs,
				TimeSeries: pointSeries,
			})
		}
	}

	if art != nil {
		if err := art.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "crbench: writing %s: %v\n", *jsonOut, err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s (schema v%d, %d experiments)\n", *jsonOut, art.Schema, len(art.Experiments))
		}
	}
	if failed {
		// The artifact is written first: a red run still leaves the full
		// evidence on disk.
		return 1
	}
	return 0
}

// writeSeriesCSVs dumps each sampled point's time-series as one CSV
// named <exp>_<label>_<load>.csv under dir (created if absent).
func writeSeriesCSVs(dir, exp string, series []harness.PointSeries) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sanitize := strings.NewReplacer("/", "-", " ", "", "(", "", ")", "", ",", "-", "=", "")
	for _, ps := range series {
		name := fmt.Sprintf("%s_%s_%.2f.csv", exp, sanitize.Replace(ps.Label), ps.Load)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(ps.Data.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
