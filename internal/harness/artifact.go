package harness

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"strings"

	"crnet/internal/obs"
	"crnet/internal/stats"
)

// SchemaVersion identifies the JSON artifact layout, for the downstream
// tools (trajectory plots, regression diffs) the artifact is written
// for; nothing in this tree reads one back. Bump it on any field change
// so such a tool can refuse a payload it does not understand. Version 2
// added ExperimentResult.Errors, 3 added ExperimentResult.TimeSeries;
// 4 writes the same bytes as 3.
const SchemaVersion = 4

// Artifact is the machine-readable record of one harness run: the
// result series of every experiment executed plus enough provenance
// (config echo, seed, code version, timings) to reproduce or diff it.
type Artifact struct {
	// Schema is SchemaVersion at write time.
	Schema int `json:"schema"`
	// Tool names the producing binary, e.g. "crbench".
	Tool string `json:"tool"`
	// CreatedAt is the RFC 3339 wall-clock time of the run.
	CreatedAt string `json:"created_at,omitempty"`
	// GitDescribe records the code version (git describe --always --dirty).
	GitDescribe string `json:"git_describe,omitempty"`
	// Scale echoes the run configuration: the named scale plus the
	// knobs that determine every number in the series.
	Scale ScaleEcho `json:"scale"`
	// Parallel is the resolved worker-pool size used for the run. It is
	// provenance only: results are identical for every value.
	Parallel int `json:"parallel"`
	// Experiments holds one entry per experiment, in execution order.
	Experiments []ExperimentResult `json:"experiments"`
}

// ScaleEcho echoes the simulation scale an artifact was produced at.
type ScaleEcho struct {
	Name    string    `json:"name"`
	K       int       `json:"k"`
	MsgLen  int       `json:"msg_len"`
	Warmup  int64     `json:"warmup_cycles"`
	Measure int64     `json:"measure_cycles"`
	Loads   []float64 `json:"loads"`
	Seed    uint64    `json:"seed"`
}

// ExperimentResult is one experiment's series plus its timings.
type ExperimentResult struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper,omitempty"`
	// Table is the experiment's full result series (same rows the text
	// table renders).
	Table stats.TableJSON `json:"table"`
	// ElapsedMS is the experiment's wall-clock time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Sweeps records per-point wall-clock for each harness sweep the
	// experiment ran (experiments not yet converted to the harness have
	// none).
	Sweeps []SweepTiming `json:"sweeps,omitempty"`
	// Errors lists sweep points that failed (panicked, errored or timed
	// out) instead of producing a result. The table rows for those
	// points carry zero values; a non-empty Errors section marks the
	// experiment as partial. Absent on fully successful runs.
	Errors []PointError `json:"errors,omitempty"`
	// TimeSeries holds the sampled metric time-series of points that ran
	// with the per-cycle sampler enabled (schema v3+). Absent otherwise.
	TimeSeries []PointSeries `json:"time_series,omitempty"`
}

// PointSeries is one sweep point's sampled time-series, labelled with
// its series name and load so plots can locate it without re-deriving
// the grid.
type PointSeries struct {
	Label string         `json:"label"`
	Load  float64        `json:"load,omitempty"`
	Data  obs.SeriesJSON `json:"data"`
}

// SweepTiming is the per-point wall-clock of one sweep, in grid order.
type SweepTiming struct {
	Label   string    `json:"label"`
	PointMS []float64 `json:"point_ms"`
}

// Canonical returns a copy of the artifact with every field that may
// legitimately differ between two equivalent runs zeroed: wall-clock
// timings, creation time, code version and worker count. Two runs of
// the same experiments at the same scale must produce byte-identical
// canonical encodings regardless of parallelism — the determinism
// regression test asserts exactly this.
func (a *Artifact) Canonical() Artifact {
	c := *a
	c.CreatedAt = ""
	c.GitDescribe = ""
	c.Parallel = 0
	c.Experiments = make([]ExperimentResult, len(a.Experiments))
	for i, e := range a.Experiments {
		e.ElapsedMS = 0
		if e.Sweeps != nil {
			sweeps := make([]SweepTiming, len(e.Sweeps))
			for j, s := range e.Sweeps {
				sweeps[j] = SweepTiming{Label: s.Label, PointMS: make([]float64, len(s.PointMS))}
			}
			e.Sweeps = sweeps
		}
		if e.Errors != nil {
			errs := make([]PointError, len(e.Errors))
			for j, pe := range e.Errors {
				pe.ElapsedMS = 0
				errs[j] = pe
			}
			e.Errors = errs
		}
		c.Experiments[i] = e
	}
	return c
}

// Encode writes the artifact as indented JSON followed by a newline.
func (a *Artifact) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the artifact to path, creating or truncating it.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// GitDescribe returns `git describe --always --dirty` for provenance,
// or "" when git or the repository is unavailable (artifacts must still
// be writable from an exported source tree).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
