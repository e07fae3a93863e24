package obs

import (
	"strings"
	"testing"
)

func TestRegistryOrderAndSample(t *testing.T) {
	r := NewRegistry()
	kills, g := int64(0), 0.0
	r.Gauge("kills", func() float64 { return float64(kills) })
	r.Gauge("occ", func() float64 { return g })
	if got := r.Names(); len(got) != 2 || got[0] != "kills" || got[1] != "occ" {
		t.Fatalf("names = %v", got)
	}
	kills += 3
	g = 7.5
	s := r.Sample()
	if s[0] != 3 || s[1] != 7.5 {
		t.Fatalf("sample = %v", s)
	}
}

func TestRegistryRejectsDuplicatesAndBadProbes(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x", func() float64 { return 0 })
	for name, fn := range map[string]func(){
		"duplicate":  func() { r.Gauge("x", func() float64 { return 1 }) },
		"empty name": func() { r.Gauge("", func() float64 { return 0 }) },
		"nil gauge":  func() { r.Gauge("g", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSamplerCadenceAndRing(t *testing.T) {
	r := NewRegistry()
	cycle := int64(0)
	r.Gauge("cyc", func() float64 { return float64(cycle) })
	s := NewSampler(r, 10, 4)
	for cycle = 0; cycle < 100; cycle++ {
		s.Tick(cycle)
	}
	series := s.Series()
	if series.Len() != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", series.Len())
	}
	// The ring keeps the most recent samples, chronologically ordered.
	want := []int64{60, 70, 80, 90}
	for i, sm := range series.Samples {
		if sm.Cycle != want[i] || sm.Values[0] != float64(want[i]) {
			t.Fatalf("sample %d = {%d %v}, want cycle %d", i, sm.Cycle, sm.Values, want[i])
		}
	}
	if series.Every != 10 {
		t.Fatalf("every = %d", series.Every)
	}
}

func TestSamplerNoWrapKeepsAll(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", func() float64 { return 1 })
	s := NewSampler(r, 5, 100)
	for c := int64(0); c < 50; c++ {
		s.Tick(c)
	}
	if got := s.Series().Len(); got != 10 {
		t.Fatalf("retained = %d, want 10", got)
	}
}

func TestSamplerBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cadence accepted")
		}
	}()
	NewSampler(NewRegistry(), 0, 4)
}

func TestSeriesReductionsAndCSV(t *testing.T) {
	r := NewRegistry()
	kills, occ := int64(0), 0.0
	r.Gauge("kills", func() float64 { return float64(kills) })
	r.Gauge("occ", func() float64 { return occ })
	s := NewSampler(r, 1, 16)
	for c := int64(0); c < 4; c++ {
		occ = float64(c) * 2.5
		kills += c // cumulative: 0, 1, 3, 6
		s.Tick(c)
	}
	series := s.Series()
	mean, max := series.ColumnStats("occ")
	if mean != (0+2.5+5+7.5)/4 || max != 7.5 {
		t.Fatalf("occ stats = %v/%v", mean, max)
	}
	if d := series.Delta("kills"); d != 6 {
		t.Fatalf("kills delta = %v, want 6", d)
	}
	if m, x := series.ColumnStats("nope"); m != 0 || x != 0 {
		t.Fatal("unknown column not neutral")
	}
	csv := series.JSON().CSV()
	if !strings.HasPrefix(csv, "cycle,kills,occ\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "\n1,1,2.5\n") {
		t.Fatalf("csv row wrong:\n%s", csv)
	}

	j := series.JSON()
	if j.Every != 1 || len(j.Cycles) != 4 || len(j.Values) != 4 || j.Values[3][0] != 6 {
		t.Fatalf("json shape wrong: %+v", j)
	}
}

func TestEmptySeriesJSONNotNull(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, 1, 1)
	j := s.Series().JSON()
	if j.Cycles == nil || j.Values == nil || j.Columns == nil {
		t.Fatal("empty series encodes null slices")
	}
}

func TestPhaseBreakdownSumInvariant(t *testing.T) {
	b := NewPhaseBreakdown(8, 64)
	b.Add(10, 0, 5, 20, 0)
	b.Add(3, 40, 6, 18, 32)
	if b.N() != 2 {
		t.Fatalf("n = %d", b.N())
	}
	if err := b.CheckSum(); err != nil {
		t.Fatalf("sum invariant: %v", err)
	}
	if b.Total.Sum() != 10+5+20+3+40+6+18 {
		t.Fatalf("total sum = %d", b.Total.Sum())
	}
	if b.Backoff.Sum() != 32 {
		t.Fatalf("backoff sum = %d", b.Backoff.Sum())
	}
	// A negative component (broken timestamp plumbing) must be detected.
	bad := NewPhaseBreakdown(8, 64)
	bad.Add(-1, 0, 1, 1, 0)
	if err := bad.CheckSum(); err == nil {
		t.Fatal("negative phase component not detected")
	}
}
