package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Series is a sampled metrics time-series: one row per sample, one
// column per registered metric, in chronological order.
type Series struct {
	// Every is the sample cadence in cycles.
	Every int64
	// Columns are the metric names, in registry order.
	Columns []string
	// Samples are the retained snapshots, oldest first.
	Samples []Sample
}

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.Samples) }

// Column returns the index of the named column, or -1.
func (s *Series) Column(name string) int {
	for i, c := range s.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// ColumnStats reduces one column to (mean, max) over the retained
// samples; both are 0 for an empty series or unknown column.
func (s *Series) ColumnStats(name string) (mean, max float64) {
	i := s.Column(name)
	if i < 0 || len(s.Samples) == 0 {
		return 0, 0
	}
	sum := 0.0
	max = s.Samples[0].Values[i]
	for _, sm := range s.Samples {
		v := sm.Values[i]
		sum += v
		if v > max {
			max = v
		}
	}
	return sum / float64(len(s.Samples)), max
}

// Delta returns the last-minus-first value of a column — the change of
// a cumulative counter over the retained window. 0 for empty series or
// unknown columns.
func (s *Series) Delta(name string) float64 {
	i := s.Column(name)
	if i < 0 || len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Values[i] - s.Samples[0].Values[i]
}

// Last returns the most recent value of a column, or 0 for an empty
// series or unknown column.
func (s *Series) Last(name string) float64 {
	i := s.Column(name)
	if i < 0 || len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Values[i]
}

// formatValue renders a sample value compactly and deterministically:
// integral values print without a fraction, others with %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// SeriesJSON is the JSON shape of a Series, columnar so repeated keys
// do not bloat the artifact: cycles[i] pairs with values[i][*].
type SeriesJSON struct {
	Every   int64       `json:"every"`
	Columns []string    `json:"columns"`
	Cycles  []int64     `json:"cycles"`
	Values  [][]float64 `json:"values"`
}

// CSV renders the series with a header row: cycle, then each column
// (crbench -timeseries writes one file per sampled point).
func (j SeriesJSON) CSV() string {
	var b strings.Builder
	b.WriteString("cycle")
	for _, c := range j.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for i, cyc := range j.Cycles {
		fmt.Fprintf(&b, "%d", cyc)
		for _, v := range j.Values[i] {
			b.WriteByte(',')
			b.WriteString(formatValue(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON returns the series' JSON shape. Slices are never nil, so empty
// series encode as [] rather than null.
func (s *Series) JSON() SeriesJSON {
	j := SeriesJSON{
		Every:   s.Every,
		Columns: append([]string{}, s.Columns...),
		Cycles:  make([]int64, 0, len(s.Samples)),
		Values:  make([][]float64, 0, len(s.Samples)),
	}
	for _, sm := range s.Samples {
		j.Cycles = append(j.Cycles, sm.Cycle)
		j.Values = append(j.Values, append([]float64{}, sm.Values...))
	}
	return j
}
