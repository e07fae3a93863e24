package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crnet/internal/obs"
	"crnet/internal/stats"
)

// pure adapts a point function that cannot fail to SweepSafe's shape.
func pure[T any](fn func(i int) T) func(int, <-chan struct{}) (T, error) {
	return func(i int, _ <-chan struct{}) (T, error) { return fn(i), nil }
}

func TestSweepReturnsGridOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8, 100} {
		got, _ := SweepSafe(37, SafeOptions{Options: Options{Workers: workers}}, pure(func(i int) int { return i * i }))
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// An empty (or negative) grid runs nothing: no point, no OnPoint.
func TestSweepEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		opt := SafeOptions{Options: Options{OnPoint: func() { called = true }}}
		got, errs := SweepSafe(n, opt, pure(func(i int) int { called = true; return i }))
		if got != nil || errs != nil || called {
			t.Fatalf("n=%d: empty sweep returned %v, %v (called=%v)", n, got, errs, called)
		}
	}
}

func TestSweepRunsEveryPointOnce(t *testing.T) {
	var calls [64]int32
	SweepSafe(len(calls), SafeOptions{Options: Options{Workers: 7}}, pure(func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	}))
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("point %d ran %d times", i, c)
		}
	}
}

// OnPoint fires once per point whether the point succeeded or failed.
func TestSweepOnPointCount(t *testing.T) {
	var n int64
	opt := SafeOptions{Options: Options{Workers: 4, OnPoint: func() { atomic.AddInt64(&n, 1) }}}
	SweepSafe(25, opt, func(i int, _ <-chan struct{}) (int, error) {
		if i%5 == 0 {
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	if n != 25 {
		t.Fatalf("OnPoint fired %d times, want 25", n)
	}
}

func TestSweepBoundsWorkers(t *testing.T) {
	var live, peak int64
	SweepSafe(32, SafeOptions{Options: Options{Workers: 3}}, pure(func(i int) int {
		cur := atomic.AddInt64(&live, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&live, -1)
		return i
	}))
	if peak > 3 {
		t.Fatalf("pool ran %d concurrent points, bound is 3", peak)
	}
}

func TestPointSeed(t *testing.T) {
	// Distinct indices and bases must give distinct, well-mixed seeds.
	seen := map[uint64]bool{}
	for _, base := range []uint64{0, 1, 2, 1 << 40} {
		for i := 0; i < 1000; i++ {
			s := PointSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	// Deterministic: the mapping is part of the artifact contract.
	if a, b := PointSeed(1, 7), PointSeed(1, 7); a != b {
		t.Fatalf("PointSeed not deterministic: %d vs %d", a, b)
	}
	// Small bases must not produce small (poorly mixed) seeds.
	if s := PointSeed(0, 0); s < 1<<32 {
		t.Fatalf("PointSeed(0,0) = %d looks unmixed", s)
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	p := NewProgress(&buf, "E5", 4)
	p.now = func() time.Time { return clock }
	p.start = clock

	p.Point() // t=0: prints (first line; last is zero)
	clock = clock.Add(200 * time.Millisecond)
	p.Point() // throttled
	clock = clock.Add(2 * time.Second)
	p.Point() // prints with ETA
	clock = clock.Add(time.Second)
	p.Point() // final point always prints

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d progress lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "E5: 3/4 points (75%)") {
		t.Fatalf("unexpected progress line: %q", lines[1])
	}
	if !strings.Contains(lines[1], "ETA") {
		t.Fatalf("no ETA in %q", lines[1])
	}
	if !strings.Contains(lines[2], "4/4") || !strings.Contains(lines[2], "done in") {
		t.Fatalf("final line wrong: %q", lines[2])
	}
	if p.Done() != 4 {
		t.Fatalf("Done() = %d", p.Done())
	}
}

// An instantaneous first point (elapsed below the clock resolution)
// must render ETA "?" rather than extrapolating a nonsense "0s"; the
// estimate appears once the clock has actually advanced.
func TestProgressETAFirstInstantPoint(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	p := NewProgress(&buf, "E1", 3)
	p.now = func() time.Time { return clock }
	p.start = clock

	p.Point() // zero elapsed: no basis for an estimate
	if line := buf.String(); !strings.Contains(line, "ETA ?") {
		t.Fatalf("instant first point extrapolated an ETA: %q", line)
	}
	buf.Reset()
	clock = clock.Add(2 * time.Second)
	p.Point()
	if line := buf.String(); !strings.Contains(line, "ETA 1s") {
		t.Fatalf("expected 1s estimate after 2s/2 points: %q", line)
	}
}

func TestProgressNilWriter(t *testing.T) {
	p := NewProgress(nil, "x", 2)
	p.Point()
	p.Point() // must not panic
	if p.Done() != 2 {
		t.Fatal("counters broken with nil writer")
	}
}

func TestArtifactCanonicalStripsTimings(t *testing.T) {
	tbl := stats.NewTable("T", "a", "b")
	tbl.AddRow("x", 1.5)
	a := Artifact{
		Schema:      SchemaVersion,
		Tool:        "crbench",
		CreatedAt:   "2026-08-05T00:00:00Z",
		GitDescribe: "abc123-dirty",
		Scale:       ScaleEcho{Name: "quick", K: 8, Seed: 1},
		Parallel:    8,
		Experiments: []ExperimentResult{{
			ID: "E5", Title: "t", Paper: "p",
			Table:     tbl.JSON(),
			ElapsedMS: 123.4,
			Sweeps:    []SweepTiming{{Label: "E5", PointMS: []float64{1, 2, 3}}},
		}},
	}
	b := a
	b.CreatedAt = "2026-08-05T11:11:11Z"
	b.GitDescribe = "def456"
	b.Parallel = 1
	b.Experiments = []ExperimentResult{a.Experiments[0]}
	b.Experiments[0].ElapsedMS = 999
	b.Experiments[0].Sweeps = []SweepTiming{{Label: "E5", PointMS: []float64{9, 9, 9}}}

	ca, err := json.Marshal(a.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(b.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	// Canonicalizing must not mutate the original.
	if a.Experiments[0].ElapsedMS != 123.4 || a.Experiments[0].Sweeps[0].PointMS[0] != 1 {
		t.Fatal("Canonical mutated its receiver")
	}
	// The series data must survive canonicalization.
	if !strings.Contains(string(ca), `"rows":[["x","1.5"]]`) {
		t.Fatalf("canonical artifact lost table rows: %s", ca)
	}
}

func TestArtifactTimeSeriesRoundTrip(t *testing.T) {
	tbl := stats.NewTable("T", "a")
	a := Artifact{
		Schema: SchemaVersion,
		Tool:   "crbench",
		Scale:  ScaleEcho{Name: "quick"},
		Experiments: []ExperimentResult{{
			ID: "E26", Title: "occupancy", Table: tbl.JSON(),
			TimeSeries: []PointSeries{{
				Label: "CR(d=2)", Load: 0.6,
				Data: obs.SeriesJSON{
					Every:   50,
					Columns: []string{"occupancy_total"},
					Cycles:  []int64{0, 50},
					Values:  [][]float64{{0}, {12}},
				},
			}},
		}},
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	ts := back.Experiments[0].TimeSeries
	if len(ts) != 1 || ts[0].Label != "CR(d=2)" || ts[0].Data.Values[1][0] != 12 {
		t.Fatalf("time-series round trip broken: %+v", ts)
	}
	// Time-series are deterministic data: Canonical must keep them.
	if c := a.Canonical(); len(c.Experiments[0].TimeSeries) != 1 {
		t.Fatal("Canonical dropped the time-series section")
	}
}

func TestArtifactEncode(t *testing.T) {
	a := Artifact{Schema: SchemaVersion, Tool: "crbench", Scale: ScaleEcho{Name: "quick"}}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("artifact file must end with a newline")
	}
	var back Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.Scale.Name != "quick" {
		t.Fatalf("round trip broken: %+v", back)
	}
}
