package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"crnet/internal/harness"
)

// document is what -all prints and -compare reads.
type document struct {
	Schema string `json:"schema"`
	// Model says what the simulated numbers are worth: the repository
	// holds no hardware measurement or independent reference to compare
	// the simulator against, so no error figure is given.
	Model     string        `json:"model"`
	Env       envInfo       `json:"env"`
	Seed      uint64        `json:"seed"`
	Seconds   int           `json:"seconds"`
	Runs      int           `json:"runs"`
	EndToEnd  []metricSpec  `json:"end_to_end"`
	PerLayer  []metricSpec  `json:"per_layer"`
	Workloads []workloadDoc `json:"workloads"`
}

const documentSchema = "crnet-benchmark/1"

type envInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	HostCores  int    `json:"host_cores"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// series is one end-to-end metric over the untraced runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

type workloadDoc struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]series  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// TraceRunDelta is the traced run's timed region against the untraced
	// median, as a share: the tracing overhead as measured between runs
	// (trace.overhead_share is the in-run estimate).
	TraceRunDelta float64  `json:"trace_run_delta_share"`
	Errors        []string `json:"errors,omitempty"`
}

// child runs one workload in a fresh process, so that peak_rss_mb and
// the collector's state belong to that workload alone.
func child(exe, workload string, opt options) (result, error) {
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-trace", trace, "-out", opt.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %s): last line is not a result: %w", workload, trace, err)
	}
	return res, nil
}

func allMain(opt options, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: must be at least 1", runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{
		Schema: documentSchema,
		Model:  "unvalidated",
		Env: envInfo{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			HostCores:  runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Commit:     harness.GitDescribe(),
		},
		Seed: opt.seed, Seconds: opt.seconds, Runs: runs,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	failed := 0
	for _, w := range workloads {
		wd := workloadDoc{Name: w.Name, Why: w.Why, Correct: true,
			EndToEnd: make(map[string]series), PerLayer: make(map[string]float64)}
		fail := func(err error) {
			wd.Correct = false
			wd.Errors = append(wd.Errors, err.Error())
		}
		for i := 0; i < runs; i++ {
			fmt.Fprintf(os.Stderr, "benchmark: %s run %d/%d\n", w.Name, i+1, runs)
			o := opt
			o.traced = false
			res, err := child(exe, w.Name, o)
			if err != nil {
				fail(err)
				break
			}
			wd.Attempted, wd.Failed = res.Attempted, res.Failed
			for _, s := range endToEnd {
				ser := wd.EndToEnd[s.Name]
				ser.Unit = s.Unit
				ser.Values = append(ser.Values, res.Metrics[s.Name].Value)
				ser.Median = median(ser.Values)
				wd.EndToEnd[s.Name] = ser
			}
		}
		if wd.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced\n", w.Name)
			o := opt
			o.traced = true
			res, err := child(exe, w.Name, o)
			if err != nil {
				fail(err)
			}
			for name, v := range res.Metrics {
				wd.PerLayer[name] = v.Value
			}
			wall := wd.EndToEnd["wall_s"].Median
			wd.TraceRunDelta = ratio(wd.PerLayer["trace.wall_s"]-wall, wall)
		}
		if !wd.Correct {
			failed++
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed a check", failed, len(workloads))
	}
	return nil
}
