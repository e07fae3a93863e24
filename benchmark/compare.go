package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// -compare A.json B.json: B against A, workload by workload and metric
// by metric, by the rules of the choosing-metrics guide. A regression is
// a median worse by more than the metric's bound; where the runs of
// either side spread wider than the bound the pairing is unresolved
// rather than unchanged, unless every run of B beats every run of A.
// Simulated quantities must match exactly.

type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// spread is the distance between the quartiles as a share of the
// median (the range, below four values).
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	lo, hi := s[0], s[n-1]
	if n >= 4 {
		lo, hi = quartile(s, 1), quartile(s, 3)
	}
	return ratio(hi-lo, median(s))
}

// quartile is the k-th quartile of sorted s by the exclusive method, as
// Python's statistics.quantiles(s, n=4) computes it.
func quartile(s []float64, k int) float64 {
	n := len(s)
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// judge compares one metric's runs. worse is how much B's median is
// worse than A's, as a share of A's (negative: better).
func judge(spec metricSpec, a, b []float64) (v verdict, worse float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if spec.Better == higher {
		worse = -worse
	}
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		if !allBetter(spec, a, b) {
			return unresolved, worse
		}
	}
	switch {
	case worse > spec.Bound:
		return regressed, worse
	case worse < -spec.Bound:
		return improved, worse
	}
	return unchanged, worse
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(spec metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := a[0], a[0]
	for _, x := range a {
		minA, maxA = min(minA, x), max(maxA, x)
	}
	for _, x := range b {
		if spec.Better == lower && x >= minA || spec.Better == higher && x <= maxA {
			return false
		}
	}
	return true
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != documentSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, documentSchema)
	}
	return &d, nil
}

func isExact(name string) bool {
	for _, p := range exactPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	for _, e := range exactEndToEnd {
		if name == e {
			return true
		}
	}
	return false
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two documents written by -all")
	}
	a, err := readDocument(args[0])
	if err != nil {
		return err
	}
	b, err := readDocument(args[1])
	if err != nil {
		return err
	}
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds
	if !sameInputs {
		fmt.Printf("inputs differ (seed %d/%d, seconds %d/%d): simulated quantities are not compared\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	byName := make(map[string]workloadDoc)
	for _, w := range a.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			fmt.Printf("%-14s only in %s\n", wb.Name, args[1])
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Printf("%-14s failed its checks (A correct=%t, B correct=%t)\n", wb.Name, wa.Correct, wb.Correct)
			bad++
			continue
		}
		for _, spec := range endToEnd {
			sa, sb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			v, worse := judge(spec, sa.Values, sb.Values)
			if v == regressed {
				bad++
			}
			direction := "worse"
			if worse < 0 {
				direction, worse = "better", -worse
			}
			fmt.Printf("%-14s %-18s %12.6g -> %12.6g %-5s %6.2f%% %-6s (bound %.0f%%, spread %.1f%% / %.1f%%)  %s\n",
				wb.Name, spec.Name, sa.Median, sb.Median, spec.Unit, 100*worse, direction, 100*spec.Bound,
				100*spread(sa.Values), 100*spread(sb.Values), v)
			if sameInputs && isExact(spec.Name) && sa.Median != sb.Median {
				fmt.Printf("%-14s %-18s must repeat exactly and does not\n", wb.Name, spec.Name)
				bad++
			}
		}
		if !sameInputs {
			continue
		}
		for _, spec := range perLayer {
			if va, vb := wa.PerLayer[spec.Name], wb.PerLayer[spec.Name]; isExact(spec.Name) && va != vb {
				fmt.Printf("%-14s %-34s %.17g -> %.17g: simulated quantity changed\n", wb.Name, spec.Name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions or simulated-quantity mismatches", bad)
	}
	return nil
}
