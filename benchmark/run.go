package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"crnet/internal/snapshot"
)

// options are the inputs of one workload run.
type options struct {
	seed    uint64
	seconds int // sizes the timed region: simulated work scales with it
	traced  bool
	outDir  string
	// mini shrinks every workload to a few hundred cycles on small
	// networks, for the package's tests.
	mini bool
}

// run is the state of one workload run: the metrics gathered so far,
// the failed checks, the operation counts and the tracer.
type run struct {
	opt      options
	workload string
	tr       tracer
	m        map[string]float64
	failures []string

	// attempted counts simulated messages that reached a final
	// disposition in the timed region; wrong counts those whose outcome
	// the simulator must never produce (corrupt, out of order,
	// undelivered at the drain bound); refused counts those the simulated
	// fabric itself shed or abandoned.
	attempted, wrong, refused int64

	timedSpan int // id of the timed region's span
}

func newRun(workload string, opt options) *run {
	return &run{opt: opt, workload: workload, tr: tracer{on: opt.traced}, m: make(map[string]float64)}
}

func (r *run) set(name string, v float64) { r.m[name] = v }

// check records a failed correctness check or regime guard.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) checkErr(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// scaled returns the timed-region size for this run: perSecond units of
// simulated work for every second asked for, so that equal -seconds
// always means equal simulated work.
func (r *run) scaled(perSecond, mini int64) int64 {
	if r.opt.mini {
		return mini
	}
	return perSecond * int64(r.opt.seconds)
}

// span times fn as a span under parent and returns its duration.
func (r *run) span(name string, parent int, fn func(id int)) time.Duration {
	start := time.Now()
	id := r.tr.open(name, parent, start)
	fn(id)
	end := time.Now()
	r.tr.close(id, end)
	return end.Sub(start)
}

// setup runs build n times and reports the median as setup_s, so that
// one slow page-fault storm does not decide the metric. The first
// set-up is counted from process start. Only the last product is kept;
// the earlier ones are dropped and collected before the next build.
func setup[T any](r *run, n int, build func(span int) T) T {
	if r.opt.mini {
		n = 1
	}
	var product T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var zero T
		product = zero
		runtime.GC()
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		id := r.tr.open("setup", -1, start)
		product = build(id)
		end := time.Now()
		r.tr.close(id, end)
		times = append(times, end.Sub(start).Seconds())
	}
	r.set("setup_s", median(times))
	return product
}

// timedRegion runs fn as the run's timed region and derives the
// end-to-end timing metrics from it. nodeCycles reports the simulated
// work done, summed over networks as nodes x cycles.
func (r *run) timedRegion(fn func(span int) (nodeCycles float64)) *region {
	runtime.GC()
	reg := beginRegion()
	id := r.tr.open("timed", -1, reg.start)
	nodeCycles := fn(id)
	reg.end()
	r.tr.close(id, reg.stop)
	r.timedSpan = id
	r.set("wall_s", reg.Wall)
	r.set("cpu_s", reg.CPU)
	r.set("node_cycles_per_s", ratio(nodeCycles, reg.Wall))
	r.set("network.cpu_per_wall", ratio(reg.CPU, reg.Wall))
	r.set("go.gc_count", float64(reg.GCs))
	r.set("go.gc_pause_total_ms", reg.GCPause*1e3)
	r.set("go.heap_live_mb", reg.HeapLive)
	return reg
}

// checkpointable is the live object a workload checkpoints after its
// timed region: a network or a service.
type checkpointable interface {
	// save serializes the live state (SaveState or Service.Save).
	save() []byte
	cycle() int64
	// fresh builds an identically configured instance at cycle zero and
	// returns its load and save functions.
	fresh() (load func(payload []byte) error, save func() []byte)
}

// checkpoint measures save (state codec + container encode) and restore
// (container decode + load into a fresh instance) over three or more
// pairs, a forced collection before each, and checks that the restored
// instance re-saves byte-identically. It returns the state codec's share
// of each (SaveState, LoadState).
//
// Each timing is reported as the lower decile of its samples (the
// minimum, below ten pairs). On the shared reference host a millisecond
// allocation-heavy call is disturbed in one direction only, and often:
// within one run the samples' upper quartile sits 30 % above the lower,
// and the median moves by 10-20 % between runs of one binary while the
// lower decile moves by 2-5 %.
func (r *run) checkpoint(c checkpointable) (stateSave, stateLoad float64) {
	start := time.Now()
	id := r.tr.open("checkpoint", -1, start)
	var saveMS, restoreMS, stateSaveMS, stateLoadMS, encMBs, decMBs []float64
	var blob, payload []byte
	// Three pairs of a big network take seconds; a small one repeats for
	// up to two seconds, because millisecond timings need the larger
	// sample to ride out a noisy stretch on a shared host.
	const budget, maxPairs = 2 * time.Second, 201
	for pair := 0; pair < 3 || (!r.opt.mini && time.Since(start) < budget && pair < maxPairs); pair++ {
		runtime.GC()
		t0 := time.Now()
		payload = c.save()
		t1 := time.Now()
		blob = snapshot.Encode(c.cycle(), payload)
		t2 := time.Now()

		load, resave := c.fresh()
		runtime.GC()
		t3 := time.Now()
		_, decoded, err := snapshot.Decode(r.workload, blob)
		t4 := time.Now()
		if err == nil {
			err = load(decoded)
		}
		t5 := time.Now()
		if err != nil {
			r.checkErr("checkpoint restore", err)
			break
		}
		if pair == 0 {
			r.check(bytes.Equal(resave(), payload), "checkpoint round trip: restored instance re-saves differently")
		}
		r.tr.add("checkpoint.save", id, t0, t1, 1)
		r.tr.add("snapshot.encode", id, t1, t2, 1)
		r.tr.add("snapshot.decode", id, t3, t4, 1)
		r.tr.add("checkpoint.load", id, t4, t5, 1)
		saveMS = append(saveMS, ms(t2.Sub(t0)))
		restoreMS = append(restoreMS, ms(t5.Sub(t3)))
		stateSaveMS = append(stateSaveMS, ms(t1.Sub(t0)))
		stateLoadMS = append(stateLoadMS, ms(t5.Sub(t4)))
		mb := float64(len(blob)) / 1e6
		encMBs = append(encMBs, ratio(mb, t2.Sub(t1).Seconds()))
		decMBs = append(decMBs, ratio(mb, t4.Sub(t3).Seconds()))
	}
	r.set("ckpt_save_ms", quantile(saveMS, lowDecile))
	r.set("ckpt_restore_ms", quantile(restoreMS, lowDecile))
	r.set("ckpt_bytes", float64(len(blob)))
	r.set("snapshot.encode_mb_per_s", quantile(encMBs, 1-lowDecile))
	r.set("snapshot.decode_mb_per_s", quantile(decMBs, 1-lowDecile))

	// The planted-corruption check: one flipped payload byte must be
	// refused by the container's CRC, never loaded.
	if len(blob) > 0 {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		_, _, err := snapshot.Decode(r.workload, bad)
		r.check(err != nil, "corrupt checkpoint was accepted")
	}

	if r.opt.traced && len(blob) > 0 {
		path := filepath.Join(r.opt.outDir, r.workload+".final.crsnap")
		r.set("snapshot.writefile_ms", ms(r.span("snapshot.writefile", id, func(int) {
			r.checkErr("write checkpoint", snapshot.WriteFile(path, c.cycle(), payload))
		})))
		r.set("snapshot.readfile_ms", ms(r.span("snapshot.readfile", id, func(int) {
			_, back, err := snapshot.ReadFile(path)
			r.checkErr("read checkpoint", err)
			r.check(err != nil || bytes.Equal(back, payload), "checkpoint file read back differently")
		})))
		os.Remove(path)
	}
	r.tr.close(id, time.Now())
	return quantile(stateSaveMS, lowDecile), quantile(stateLoadMS, lowDecile)
}

const lowDecile = 0.10

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish closes the run: the process-level metrics, the trace file, and
// the result restricted to the declared names for this mode (every
// end-to-end metric untraced, every per-layer metric traced).
func (r *run) finish() (result, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	r.set("peak_rss_mb", rss)
	r.set("success_share", ratio(float64(r.attempted-r.wrong-r.refused), float64(r.attempted)))
	r.check(r.attempted >= 1, "no simulated message reached a final disposition")
	r.check(r.wrong == 0, "%d messages were delivered corrupt, out of order or not at all", r.wrong)

	specs := endToEnd
	if r.opt.traced {
		specs = perLayer
		r.tr.computeSelf()
		r.set("trace.wall_s", r.m["wall_s"])
		r.set("trace.spans", float64(len(r.tr.spans)))
		r.set("trace.unattributed_share", r.tr.selfShare(r.timedSpan))
		instrumentation := float64(r.tr.clockReads+2*int64(len(r.tr.spans))) * clockCostNS() / 1e9
		r.set("trace.overhead_share", ratio(instrumentation, r.m["wall_s"]))
		path := filepath.Join(r.opt.outDir, r.workload+".trace.json")
		if err := r.tr.write(path, r.workload, r.opt.seed); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.wrong,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := r.m[s.Name]
		if !ok && !r.opt.traced {
			return result{}, fmt.Errorf("%s did not measure %s", r.workload, s.Name)
		}
		// A per-layer metric the workload does not exercise reads 0.
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, nil
}
