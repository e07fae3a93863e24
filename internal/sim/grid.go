package sim

import (
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/traffic"
)

// Point is one simulation point in a declarative sweep grid: the full
// recipe for one independent run. Experiment drivers build a []Point in
// the order their table rows should appear; the harness executes the
// grid over a worker pool and hands results back in the same order, so
// table layout never depends on scheduling.
type Point struct {
	// Series labels the point's row group in the result table (e.g.
	// "CR(d=2)" or a backoff-scheme name).
	Series string
	// Pattern is the traffic pattern name (see traffic.ByName).
	Pattern string
	// Load is the offered load as a fraction of uniform capacity.
	Load float64
	// MsgLen is the message length in flits; ignored when Lengths is set.
	MsgLen int
	// Lengths optionally overrides MsgLen with a length model.
	Lengths traffic.LengthModel
	// Net is the network configuration under test.
	Net network.Config
	// Watchdog, when set, installs an invariant watchdog on the point's
	// network; a violation aborts the point and is recorded as a sweep
	// error instead of polluting the table with garbage numbers.
	Watchdog *invariant.Config
	// Degrade, when set, installs the graceful-degradation controller
	// on the point's run (see sim.Config.Degrade).
	Degrade *DegradeConfig
	// SampleEvery/SampleCap, when SampleEvery is positive, enable the
	// per-cycle metrics sampler for this point (see sim.Config); the
	// resulting time-series rides in Metrics.Series.
	SampleEvery int64
	SampleCap   int
}

// sweepJobs is the one place an experiment driver starts simulations:
// it runs n independent jobs over the crash-proof harness and returns
// their results in job order, byte-identical for every Scale.Parallel.
//
// A job that errors, panics or exceeds Scale.PointTimeout does not take
// the experiment down: its slot holds the zero T, the failure is
// reported through Scale.CollectErrors (and from there into the JSON
// artifact's errors section), and every other job still completes.
// job receives the channel that closes on timeout.
func sweepJobs[T any](s Scale, label string, n int, job func(i int, cancel <-chan struct{}) (T, error)) []T {
	var onPoint func()
	if s.Progress != nil {
		onPoint = harness.NewProgress(s.Progress, label, n).Point
	}
	// Wall-clock timing is the harness's concern, not the core's: the
	// sweep engine measures each job and reports it back here, so this
	// package stays free of time.Now (crlint wallclock).
	durs := make([]float64, n)
	out, errs := harness.SweepSafe(n, harness.SafeOptions{
		Options:      harness.Options{Workers: s.Parallel, OnPoint: onPoint},
		PointTimeout: s.PointTimeout,
		OnPointMS:    func(i int, ms float64) { durs[i] = ms },
	}, job)
	if s.Collect != nil {
		s.Collect(label, durs)
	}
	if s.CollectErrors != nil && len(errs) > 0 {
		s.CollectErrors(label, errs)
	}
	return out
}

// sweep runs a point grid as sweepJobs and returns the metrics in grid
// order. Each point derives its own traffic seed via splitmix64 from
// (Scale.Seed, point index), so the stochastic streams are independent
// of both neighbouring points and worker scheduling.
func (s Scale) sweep(label string, points []Point) []Metrics {
	ms := sweepJobs(s, label, len(points), func(i int, cancel <-chan struct{}) (Metrics, error) {
		p := points[i]
		return Run(Config{
			Net:           p.Net,
			Pattern:       p.Pattern,
			Load:          p.Load,
			MsgLen:        p.MsgLen,
			Lengths:       p.Lengths,
			WarmupCycles:  s.Warmup,
			MeasureCycles: s.Measure,
			Seed:          harness.PointSeed(s.Seed, i),
			Watchdog:      p.Watchdog,
			Degrade:       p.Degrade,
			Cancel:        cancel,
			SampleEvery:   p.SampleEvery,
			SampleCap:     p.SampleCap,
		})
	})
	if s.CollectSeries != nil {
		var series []harness.PointSeries
		for i, m := range ms {
			if m.Series != nil {
				series = append(series, harness.PointSeries{
					Label: points[i].Series,
					Load:  points[i].Load,
					Data:  m.Series.JSON(),
				})
			}
		}
		if len(series) > 0 {
			s.CollectSeries(label, series)
		}
	}
	return ms
}

// point is the common point shape: uniform traffic at the scale's
// default message length.
func (s Scale) point(series string, load float64, net network.Config) Point {
	return Point{Series: series, Pattern: "uniform", Load: load, MsgLen: s.MsgLen, Net: net}
}

// loadGrid builds the common sweep shape: one point per offered-load
// value, all sharing a series label and network config.
func (s Scale) loadGrid(series, pattern string, net network.Config) []Point {
	pts := make([]Point, 0, len(s.Loads))
	for _, load := range s.Loads {
		pts = append(pts, Point{Series: series, Pattern: pattern, Load: load, MsgLen: s.MsgLen, Net: net})
	}
	return pts
}
