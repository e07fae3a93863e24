package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d of 64 outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent on %d of 64 outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(12345)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(6)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	const p, trials = 0.25, 50000
	sum := 0.0
	for i := uint64(0); i < trials; i++ {
		sum += float64(Geometric(At(8, Jitter, 0, i), p))
	}
	want := (1 - p) / p // mean failures before success
	if got := sum / trials; math.Abs(got-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, got, want)
	}
}

func TestGeometricEdges(t *testing.T) {
	x := At(9, Jitter, 0, 0)
	if got := Geometric(x, 1); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
	if got := Geometric(x, 0); got != math.MaxInt32 {
		t.Fatalf("Geometric(0) = %d, want MaxInt32", got)
	}
	if got := Geometric(^uint64(0), 0.5); got < 0 || got > 64 {
		t.Fatalf("Geometric at the top of [0,1) = %d, want a finite count", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		out := make([]int, n)
		r.Perm(out)
		seen := make([]bool, n)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestAtKeyWords: every word of the key moves the draw, and the same key
// always gives the same one.
func TestAtKeyWords(t *testing.T) {
	base := At(1, Jitter, 2, 3)
	if At(1, Jitter, 2, 3) != base {
		t.Fatal("one key gave two draws")
	}
	for i, other := range []uint64{At(0, Jitter, 2, 3), At(1, CorruptHit, 2, 3), At(1, Jitter, 3, 3), At(1, Jitter, 2, 4), At(1, Jitter, 3, 2)} {
		if other == base {
			t.Fatalf("variant %d of the key gave the same draw", i)
		}
	}
}

// TestAtUniformity: the draws over consecutive cycles, and over
// consecutive entities at one cycle, fill 64 buckets evenly (chi-square
// with 63 degrees of freedom, below its 0.001 critical value of 103.4).
func TestAtUniformity(t *testing.T) {
	const buckets, trials = 64, 200000
	for _, tc := range []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"over-n", func(i uint64) uint64 { return At(5, CorruptHit, 17, i) }},
		{"over-entity", func(i uint64) uint64 { return At(5, CorruptHit, i, 17) }},
	} {
		var counts [buckets]int
		for i := uint64(0); i < trials; i++ {
			counts[Intn(tc.key(i), buckets)]++
		}
		want := float64(trials) / buckets
		chi := 0.0
		for _, c := range counts {
			chi += (float64(c) - want) * (float64(c) - want) / want
		}
		if chi > 103.4 {
			t.Errorf("%s: chi-square %.1f over %d buckets", tc.name, chi, buckets)
		}
	}
}

func TestKeyedBernoulli(t *testing.T) {
	const p, trials = 0.3, 100000
	hits := 0
	for i := uint64(0); i < trials; i++ {
		x := At(6, HazardFail, i%7, i/7)
		if Bernoulli(x, 0) || !Bernoulli(x, 1) || Bernoulli(x, -1) || !Bernoulli(x, 2) {
			t.Fatal("Bernoulli ignored a probability outside (0,1)")
		}
		if Bernoulli(x, p) {
			hits++
		}
	}
	if got := float64(hits) / trials; math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(256)
	}
}
