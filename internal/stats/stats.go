// Package stats provides the estimators and report formatting used by the
// simulation harness: streaming mean/variance (Welford), latency
// histograms with percentile queries, and aligned-text/CSV tables in the
// style of the paper's figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Welford is a streaming mean/variance estimator. The zero value is ready
// to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation, or 0 with none.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with none.
func (w *Welford) Max() float64 { return w.max }

// Histogram is a fixed-width integer-valued histogram, sized for
// cycle-latency measurements.
type Histogram struct {
	width   int64 // bucket width in value units
	buckets []int64
	total   int64
	sum     int64
	maxSeen int64
	clamped int64 // negative observations clamped to zero
}

// NewHistogram returns a histogram with the given bucket width and bucket
// count; values >= width*buckets overflow: they count toward the total,
// the sum and the maximum but land in no bucket.
func NewHistogram(width int64, buckets int) *Histogram {
	if width < 1 || buckets < 1 {
		panic(fmt.Sprintf("stats: invalid histogram shape width=%d buckets=%d", width, buckets))
	}
	return &Histogram{width: width, buckets: make([]int64, buckets)}
}

// Add records one non-negative observation. Negative values are clamped
// to zero and counted (see ClampedNegative): the mean and sum then
// cover the clamped value, so a non-zero clamp count marks the
// histogram's aggregates as suspect — callers deriving values by
// subtraction (e.g. phase timestamps) should assert it stays zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
		h.clamped++
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.total++
	h.sum += v
	if idx := v / h.width; idx < int64(len(h.buckets)) {
		h.buckets[idx]++
	}
}

// Reset clears all observations in place, retaining the shape and the
// bucket allocation, so windowed consumers (e.g. the degradation
// controller's per-window latency view) can reuse one histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total, h.sum, h.maxSeen, h.clamped = 0, 0, 0, 0
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the exact mean of all observations (tracked outside the
// buckets, so it is not quantized).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.maxSeen }

// Sum returns the exact sum of all observations (after clamping).
func (h *Histogram) Sum() int64 { return h.sum }

// ClampedNegative returns how many negative observations were clamped
// to zero by Add. Non-zero means Mean()/Sum() no longer reflect the
// raw data the caller passed in.
func (h *Histogram) ClampedNegative() int64 { return h.clamped }

// Percentile returns an upper bound on the p-quantile (0 < p <= 1),
// quantized to bucket boundaries and clamped to the maximum seen value
// — a reported percentile can never exceed Max(). Observations past
// the last bucket report the maximum seen value.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(h.total)))
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			// The bucket's upper bound can overshoot the data (e.g. a
			// single observation of 3 in a width-10 bucket would report
			// 10); the true quantile can never exceed the maximum.
			if ub := (int64(i) + 1) * h.width; ub < h.maxSeen {
				return ub
			}
			return h.maxSeen
		}
	}
	return h.maxSeen
}

// Table is a simple column-oriented result table that renders as aligned
// text (for terminals) or CSV (for plotting).
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Values are formatted with %v; float64 values are
// formatted with 4 significant digits.
func (t *Table) AddRow(values ...interface{}) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row has %d values, table has %d columns", len(values), len(t.Columns)))
	}
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case float32:
			row[i] = formatFloat(float64(x))
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.1f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i's cells.
func (t *Table) Row(i int) []string { return t.rows[i] }

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Verdict is the cell text of a pass/fail column: "PASS" or "FAIL".
func Verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// Failures returns the rows whose verdict cell — the column named
// "pass" or "verdict" — reads FAIL. Tables without such a column have
// none, whatever their cells say.
func (t *Table) Failures() [][]string {
	var out [][]string
	for c, name := range t.Columns {
		if name != "pass" && name != "verdict" {
			continue
		}
		for _, r := range t.rows {
			if r[c] == Verdict(false) {
				out = append(out, r)
			}
		}
	}
	return out
}
