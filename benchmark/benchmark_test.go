package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"crnet/internal/network"
	"crnet/internal/topology"
)

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has extra key %q", k)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	sameSpecs := func(kind string, declared, implemented []metricSpec) {
		if len(declared) != len(implemented) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(implemented))
		}
		for i, s := range implemented {
			unique(s.Name)
			if !unitRE.MatchString(s.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", s.Name, s.Unit)
			}
			if declared[i] != s {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, declared[i], s)
			}
		}
	}
	sameSpecs("end_to_end", b.EndToEnd, endToEnd)
	sameSpecs("per_layer", b.PerLayer, perLayer)
	hasSetup := false
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || s == metricSpec{"setup_s", "s", lower, s.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestMiniatureWorkloads runs every workload at miniature scale, traced
// and untraced, and checks each run passes its own checks and emits
// exactly the declared metric names for its mode.
func TestMiniatureWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			name   string
			traced bool
			specs  []metricSpec
		}{{"end-to-end", false, endToEnd}, {"traced", true, perLayer}} {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				opt := options{seed: 7, seconds: 1, traced: mode.traced, outDir: t.TempDir(), mini: true}
				res, failures, err := runWorkload(w.Name, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range failures {
					t.Errorf("check failed: %s", f)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.specs))
				}
				for _, s := range mode.specs {
					v, ok := res.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s missing", s.Name)
					}
					if !mode.traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, v.Value)
					}
				}
				if mode.traced {
					if _, err := os.Stat(filepath.Join(opt.outDir, w.Name+".trace.json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// brokenCheckpoint is a checkpointable whose restore path is sabotaged:
// either the payload is damaged on its way into the fresh instance, or
// the fresh instance re-saves one byte differently (a lossy codec).
type brokenCheckpoint struct {
	networkCheckpoint
	damagePayload bool
}

func (b brokenCheckpoint) fresh() (func([]byte) error, func() []byte) {
	load, save := b.networkCheckpoint.fresh()
	flip := func(p []byte) []byte {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 1
		return q
	}
	if b.damagePayload {
		return func(p []byte) error { return load(flip(p)) }, save
	}
	return load, func() []byte { return flip(save()) }
}

func TestChecksFireOnCorruptCheckpoint(t *testing.T) {
	topo := topology.NewTorus(4, 2)
	build := func() *network.Network { return network.New(crConfig(topo, 1, 3)) }
	lp := &loop{net: build(), src: uniformAt(0.3, 3)(topo), obs: newObserver()}
	for i := 0; i < 200; i++ {
		lp.cycle(true)
	}
	good := networkCheckpoint{net: lp.net, build: build}
	for name, c := range map[string]checkpointable{
		"damaged payload": brokenCheckpoint{good, true},
		"lossy re-save":   brokenCheckpoint{good, false},
	} {
		r := newRun("test", options{outDir: t.TempDir(), mini: true})
		r.checkpoint(c)
		if len(r.failures) == 0 {
			t.Errorf("%s: the checkpoint checks did not fire", name)
		}
	}
	r := newRun("test", options{outDir: t.TempDir(), mini: true})
	r.checkpoint(good)
	if len(r.failures) != 0 {
		t.Errorf("intact checkpoint failed its checks: %v", r.failures)
	}
}

func TestJudge(t *testing.T) {
	wall := metricSpec{"wall_s", "s", lower, 0.10}
	rate := metricSpec{"node_cycles_per_s", "1/s", higher, 0.10}
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want verdict
	}{
		{wall, []float64{10, 10.1, 9.9, 10}, []float64{10.2, 10.3, 10.1, 10.2}, unchanged},
		{wall, []float64{10, 10.1, 9.9, 10}, []float64{11.5, 11.6, 11.4, 11.5}, regressed},
		{wall, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, improved},
		{wall, []float64{10, 13, 8, 11}, []float64{10, 12, 9, 11}, unresolved},
		{wall, []float64{10, 13, 9, 11}, []float64{5, 6, 5.5, 7}, improved},
		{rate, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, regressed},
		{rate, []float64{100}, []float64{99}, unchanged},
	} {
		if got, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(s, 1), quartile(s, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
