package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SafeOptions configures one SweepSafe.
type SafeOptions struct {
	Options
	// PointTimeout bounds one point's wall-clock; 0 means no bound. A
	// point that exceeds it has its cancel channel closed and is
	// recorded as a timeout; its goroutine is abandoned (a point that
	// ignores cancellation leaks a goroutine for the sweep's remainder
	// but cannot stall it).
	PointTimeout time.Duration
	// OnPointMS, when non-nil, receives each successful point's
	// wall-clock duration in milliseconds, from the completing worker's
	// goroutine (calls for distinct indices may be concurrent). Failed
	// points report their partial timing through PointError.ElapsedMS
	// instead. This is the only wall-clock measurement a sweep needs:
	// callers in the simulation core must consume it rather than
	// sampling time.Now themselves (crlint's wallclock analyzer enforces
	// that).
	OnPointMS func(i int, ms float64)
}

// PointError records one failed sweep point for the artifact's errors
// section: the sweep completed, this point did not.
type PointError struct {
	// Index is the point's grid index.
	Index int `json:"index"`
	// Kind is "error", "panic" or "timeout".
	Kind string `json:"kind"`
	// Err is the error or panic message.
	Err string `json:"error"`
	// ElapsedMS is how long the point ran before failing (partial
	// timing; zeroed by Artifact.Canonical).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// Error kinds recorded in PointError.Kind.
const (
	PointErrKind   = "error"
	PointPanicKind = "panic"
	PointTimedOut  = "timeout"
)

// SweepSafe evaluates fn(i) for every i in [0, n) over the worker pool
// and returns the results indexed by i: result order is grid order,
// never completion order. fn must not depend on shared mutable state
// (each simulation point builds its own network). The sweep always
// completes: an error fn returns, a panic inside it, or an overrun of
// the optional per-point timeout fails that point only. Failed points
// keep the zero T in the results slice and are reported in the second
// return value, sorted by index. fn receives a cancel channel that
// closes when the point times out — long-running points should poll it
// (sim.Config.Cancel does).
//
// Successful slots are byte-identical for any worker count. Which
// points fail is deterministic for errors and panics; timeouts depend
// on wall-clock by nature.
func SweepSafe[T any](n int, opt SafeOptions, fn func(i int, cancel <-chan struct{}) (T, error)) ([]T, []PointError) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	var (
		mu   sync.Mutex
		errs []PointError
		wg   sync.WaitGroup
		next int64
	)
	fail := func(pe PointError) {
		mu.Lock()
		errs = append(errs, pe)
		mu.Unlock()
	}
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(n) {
			return -1
		}
		i := int(next)
		next++
		return i
	}

	// outcome carries a child goroutine's result back to its worker.
	type outcome struct {
		val T
		err error
		pan any
		dur time.Duration
	}
	runPoint := func(i int) {
		start := time.Now()
		cancel := make(chan struct{})
		done := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				if r := recover(); r != nil {
					o.pan = r
				}
				o.dur = time.Since(start)
				done <- o
			}()
			o.val, o.err = fn(i, cancel)
		}()

		var timeout <-chan time.Time
		if opt.PointTimeout > 0 {
			tm := time.NewTimer(opt.PointTimeout)
			defer tm.Stop()
			timeout = tm.C
		}
		select {
		case o := <-done:
			ms := float64(o.dur) / float64(time.Millisecond)
			switch {
			case o.pan != nil:
				fail(PointError{Index: i, Kind: PointPanicKind, Err: fmt.Sprint(o.pan), ElapsedMS: ms})
			case o.err != nil:
				fail(PointError{Index: i, Kind: PointErrKind, Err: o.err.Error(), ElapsedMS: ms})
			default:
				results[i] = o.val
				if opt.OnPointMS != nil {
					opt.OnPointMS(i, ms)
				}
			}
		case <-timeout:
			close(cancel) // ask the point to stop; do not wait for it
			fail(PointError{
				Index: i, Kind: PointTimedOut,
				Err:       fmt.Sprintf("point exceeded timeout %v", opt.PointTimeout),
				ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			})
		}
		if opt.OnPoint != nil {
			opt.OnPoint()
		}
	}

	w := opt.workers(n)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				runPoint(i)
			}
		}()
	}
	wg.Wait()
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return results, errs
}
