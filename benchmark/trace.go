package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer, kept in memory and written out when the run ends.
// Clocks inside the core packages are a later issue (the wallclock
// analyzer forbids them there).

// span is one timed interval. Times are nanoseconds since process
// start. Parent is the id of the span that caused it, -1 at top level.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many layer calls an aggregate span stands for (the
	// per-cycle loop emits one aggregate per layer per 1024-cycle chunk).
	Calls int64 `json:"calls,omitempty"`
	Self  int64 `json:"self_ns"`
}

// tracer collects spans when on; when off every method is a no-op, so
// the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	mu    sync.Mutex // sweep8 records point spans from two workers
	spans []span     // append-only; a span's id is its index
	// clockReads counts the time.Now calls made only because tracing is
	// on, for the overhead estimate.
	clockReads int64
}

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }

// add records a finished span and returns its id (-1 when off).
func (t *tracer) add(name string, parent int, start, end time.Time, calls int64) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: sinceStart(start), End: sinceStart(end), Calls: calls})
	return id
}

// open starts a span whose end is set later by close.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, start, start, 0)
}

func (t *tracer) close(id int, end time.Time) {
	if !t.on || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = sinceStart(end)
	t.mu.Unlock()
}

// computeSelf sets every span's self time: its duration minus the part
// of that interval its child spans cover (their union, so concurrent
// children such as sweep points on two workers are not double counted).
func (t *tracer) computeSelf() {
	children := make(map[int][]int)
	for i := range t.spans {
		children[t.spans[i].Parent] = append(children[t.spans[i].Parent], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// selfShare returns span id's self time as a share of its duration.
func (t *tracer) selfShare(id int) float64 {
	if !t.on || id < 0 {
		return 0
	}
	s := t.spans[id]
	return ratio(float64(s.Self), float64(s.End-s.Start))
}

// layerSummary is the per-name roll-up written beside the raw spans.
type layerSummary struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Calls   int64   `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

type traceFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Layers   []layerSummary `json:"layers"`
	Spans    []span         `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	byName := make(map[string]*layerSummary)
	var order []string
	for _, s := range t.spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			byName[s.Name] = l
			order = append(order, s.Name)
		}
		l.Spans++
		l.Calls += s.Calls
		l.TotalMS += float64(s.End-s.Start) / 1e6
		l.SelfMS += float64(s.Self) / 1e6
	}
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	for _, name := range order {
		tf.Layers = append(tf.Layers, *byName[name])
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// clockCostNS measures one time.Now call, for the overhead estimate.
func clockCostNS() float64 {
	const n = 200000
	start := time.Now()
	var sink time.Time
	for i := 0; i < n; i++ {
		sink = time.Now()
	}
	_ = sink
	return float64(time.Since(start)) / n
}
