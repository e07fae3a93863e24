package stats

import (
	"math"
	"strings"
	"testing"

	"crnet/internal/rng"
)

func TestWelfordAgainstBruteForce(t *testing.T) {
	r := rng.New(1)
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64()*100 - 50
		xs = append(xs, x)
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-7 {
		t.Fatalf("var %v, want %v", w.Var(), variance)
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{5, -3, 7, 0} {
		w.Add(x)
	}
	if w.Min() != -3 || w.Max() != 7 {
		t.Fatalf("min=%v max=%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford not neutral")
	}
	w.Add(4)
	if w.Var() != 0 {
		t.Fatal("single observation should have zero variance")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 10) // buckets [0,10), [10,20), ... overflow >= 100
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); math.Abs(got-49.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if h.Max() != 99 {
		t.Fatalf("max = %d", h.Max())
	}
	// Median of 0..99 is <= 50; bucket upper bound quantization.
	if p := h.Percentile(0.5); p != 50 {
		t.Fatalf("p50 = %d, want 50", p)
	}
	// The top bucket's upper bound (100) exceeds the data; the result is
	// clamped to the maximum observation.
	if p := h.Percentile(1.0); p != 99 {
		t.Fatalf("p100 = %d, want 99 (max seen)", p)
	}
	if h.Sum() != 4950 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 2) // overflow at >= 20
	h.Add(5)
	h.Add(500)
	if p := h.Percentile(1.0); p != 500 {
		t.Fatalf("overflow percentile = %d, want max 500", p)
	}
	if h.Mean() != 252.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(10, 4)
	h.Add(-5)
	if h.N() != 1 || h.Percentile(1) != 0 {
		t.Fatalf("negative value not clamped to zero: p100 = %d", h.Percentile(1))
	}
	if h.ClampedNegative() != 1 {
		t.Fatalf("clamped counter = %d, want 1", h.ClampedNegative())
	}
	h.Add(7)
	if h.ClampedNegative() != 1 || h.Sum() != 7 {
		t.Fatal("clamp counter or sum moved on a valid observation")
	}
}

// TestPercentileNeverExceedsMax is the regression test for the bucket
// upper-bound bug: Percentile used to return (i+1)*width, which can
// exceed the largest observation (width 10, single observation 3 ->
// P50 reported 10 > max 3). Every reported percentile must now be
// bounded by Max().
func TestPercentileNeverExceedsMax(t *testing.T) {
	h := NewHistogram(10, 8)
	h.Add(3)
	if p := h.Percentile(0.5); p != 3 {
		t.Fatalf("p50 of single observation 3 = %d, want 3", p)
	}

	r := rng.New(11)
	cases := []*Histogram{h}
	big := NewHistogram(16, 32)
	for i := 0; i < 2000; i++ {
		big.Add(int64(r.Intn(1000))) // exercises overflow too (>= 512)
	}
	cases = append(cases, big)
	for ci, hh := range cases {
		for p := 0.01; p <= 1.0; p += 0.01 {
			if got := hh.Percentile(p); got > hh.Max() {
				t.Fatalf("case %d: Percentile(%.2f) = %d exceeds Max() = %d", ci, p, got, hh.Max())
			}
		}
	}
}

func TestHistogramEmptyAndBadShape(t *testing.T) {
	h := NewHistogram(8, 4)
	if h.Percentile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not neutral")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape did not panic")
		}
	}()
	NewHistogram(0, 4)
}

func TestHistogramPercentileMonotone(t *testing.T) {
	r := rng.New(7)
	h := NewHistogram(4, 64)
	for i := 0; i < 5000; i++ {
		h.Add(int64(r.Intn(300)))
	}
	prev := int64(0)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone: p%.0f=%d < %d", p*100, v, prev)
		}
		prev = v
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "load", "latency", "note")
	tb.AddRow(0.1, 23.4567, "ok")
	tb.AddRow(0.2, 42.0, "sat,urated")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "23.46") {
		t.Fatalf("text render missing content:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "load,latency,note") {
		t.Fatalf("csv missing header:\n%s", csv)
	}
	if !strings.Contains(csv, `"sat,urated"`) {
		t.Fatalf("csv did not quote comma cell:\n%s", csv)
	}
	if tb.NumRows() != 2 || len(tb.Row(0)) != 3 {
		t.Fatal("row accessors wrong")
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tb.AddRow(1)
}

func TestTableCSVQuoteEscaping(t *testing.T) {
	tb := NewTable("", "c")
	tb.AddRow(`say "hi"`)
	if want := "\"say \"\"hi\"\"\""; !strings.Contains(tb.CSV(), want) {
		t.Fatalf("quote escaping wrong: %s", tb.CSV())
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	h := NewHistogram(10, 10)
	for i := int64(0); i < 50; i++ {
		h.Add(i)
	}
	// p <= 0 clamps to the smallest positive quantile; p > 1 clamps to 1.
	if h.Percentile(-1) != h.Percentile(1e-300) {
		t.Fatal("negative p not clamped")
	}
	if h.Percentile(2) != h.Percentile(1) {
		t.Fatal("p > 1 not clamped")
	}
}
