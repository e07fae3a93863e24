// Package harness is the parallel experiment engine: it schedules a
// declarative grid of independent simulation points over a bounded
// worker pool while keeping results bitwise identical to a serial run.
//
// Determinism rests on two rules. First, every point owns its inputs:
// the per-point RNG seed is derived with splitmix64 from (base seed,
// point index) by PointSeed, so no point's stochastic stream depends on
// scheduling order. Second, workers write results into a slice slot
// reserved per index and the caller reads them back in grid order, so
// the aggregate (tables, JSON artifacts) is byte-identical for any
// worker count.
//
// The package also defines the versioned JSON artifact written by
// `crbench -json` (see artifact.go) and the stderr progress reporter
// used for long sweeps (see progress.go).
package harness

import "runtime"

// Options configures the worker pool of one SweepSafe.
type Options struct {
	// Workers bounds the worker pool. 0 (or negative) means
	// runtime.GOMAXPROCS(0); 1 runs the points one at a time, which is
	// useful for profiling and as the determinism reference.
	Workers int
	// OnPoint, when non-nil, is called once per completed point, from
	// the completing worker's goroutine. It must be safe for concurrent
	// use (Progress.Point is).
	OnPoint func()
}

// workers resolves the effective pool size for n points.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PointSeed derives the RNG seed for one grid point from the sweep's
// base seed and the point's index. It is the index-th output of a
// splitmix64 stream seeded at base, so distinct points get well-mixed,
// effectively independent seeds and the mapping never depends on worker
// scheduling. Index -1 (i.e. offset zero) is reserved for the sweep
// itself.
func PointSeed(base uint64, index int) uint64 {
	x := base + uint64(index+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
