// The determinism regression test: every experiment executed serially,
// with 8 workers, and with 8 workers over 2-shard networks must render
// byte-identical tables and canonical JSON artifacts. Run under -race this also proves the worker pool and
// the simulator's per-point isolation are data-race free — it is the
// test the Makefile's race target pins.
package harness_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"crnet/internal/harness"
	"crnet/internal/sim"
)

// detScale is a small grid that still exercises multi-series sweeps
// (E5 runs 5 series x 2 loads = 10 points).
var detScale = sim.Scale{
	K:       4,
	MsgLen:  8,
	Warmup:  300,
	Measure: 1200,
	Loads:   []float64{0.3, 0.7},
	Seed:    3,
}

// runArtifact executes the experiments at the given parallelism and
// shard count and packs results into an artifact the way crbench -json
// does. A failed sweep point fails the test: every driver must be
// healthy at this scale.
func runArtifact(t *testing.T, ids []string, parallel, shards int) (tables []string, art harness.Artifact) {
	t.Helper()
	s := detScale
	s.Parallel = parallel
	s.Shards = shards
	art = harness.Artifact{
		Schema:   harness.SchemaVersion,
		Tool:     "determinism-test",
		Scale:    harness.ScaleEcho{Name: "det", K: s.K, MsgLen: s.MsgLen, Warmup: s.Warmup, Measure: s.Measure, Loads: s.Loads, Seed: s.Seed},
		Parallel: parallel,
	}
	for _, id := range ids {
		var sweeps []harness.SweepTiming
		var series []harness.PointSeries
		s.Collect = func(label string, pointMS []float64) {
			sweeps = append(sweeps, harness.SweepTiming{Label: label, PointMS: pointMS})
		}
		s.CollectSeries = func(label string, ps []harness.PointSeries) {
			series = append(series, ps...)
		}
		s.CollectErrors = func(label string, errs []harness.PointError) {
			t.Errorf("%s/%s: sweep points failed: %+v", id, label, errs)
		}
		e, ok := sim.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		tbl := e.Run(s)
		tables = append(tables, tbl.String())
		art.Experiments = append(art.Experiments, harness.ExperimentResult{
			ID: e.ID, Title: e.Title, Paper: e.Paper, Table: tbl.JSON(), Sweeps: sweeps, TimeSeries: series,
		})
	}
	return tables, art
}

// detIDs is the experiment set the determinism test covers: every
// experiment, or under the race detector (make race-harness; all 32
// take three minutes there against twenty seconds without) the five
// that between them cover single- and multi-series grids, the phase
// decomposition and the sampler.
func detIDs() []string {
	if raceEnabled {
		return []string{"E1", "E5", "E20", "E25", "E26"}
	}
	var ids []string
	for _, e := range sim.Experiments {
		ids = append(ids, e.ID)
	}
	return ids
}

func TestParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	// E25/E26 cover the observability layer: phase decomposition must be
	// identical across worker counts, and E26's sampled time-series ride
	// in the artifact's time_series section, so any scheduling leak into
	// the sampler shows up as a canonical-JSON diff.
	ids := detIDs()
	serialTables, serialArt := runArtifact(t, ids, 1, 0)
	sj, err := json.MarshalIndent(serialArt.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var parArt harness.Artifact
	for _, v := range []struct{ parallel, shards int }{{8, 0}, {8, 2}} {
		tables, art := runArtifact(t, ids, v.parallel, v.shards)
		for i := range ids {
			if serialTables[i] != tables[i] {
				t.Errorf("%s: rendered tables differ between parallel=1 shards=0 and parallel=%d shards=%d:\n--- reference ---\n%s--- variant ---\n%s",
					ids[i], v.parallel, v.shards, serialTables[i], tables[i])
			}
		}
		vj, err := json.MarshalIndent(art.Canonical(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, vj) {
			t.Errorf("canonical JSON artifacts differ between parallel=1 shards=0 and parallel=%d shards=%d", v.parallel, v.shards)
		}
		parArt = art
	}

	// E26 must actually have produced time-series for every point.
	for _, e := range parArt.Experiments {
		if e.ID != "E26" {
			continue
		}
		if len(e.TimeSeries) != len(detScale.Loads) {
			t.Errorf("E26 produced %d time-series, want one per load (%d)",
				len(e.TimeSeries), len(detScale.Loads))
		}
		for _, ts := range e.TimeSeries {
			if len(ts.Data.Cycles) == 0 {
				t.Errorf("E26 %s load %.2f: empty time-series", ts.Label, ts.Load)
			}
		}
	}

	// Every experiment that simulates anything runs it on the sweep
	// engine, so the timing channel reports one sample per simulation;
	// E11 is arithmetic.
	for _, e := range parArt.Experiments {
		if e.ID == "E11" {
			continue
		}
		if len(e.Sweeps) == 0 {
			t.Errorf("%s reported no sweep timings", e.ID)
		}
		for _, sw := range e.Sweeps {
			if len(sw.PointMS) == 0 {
				t.Errorf("%s sweep %q has no per-point timings", e.ID, sw.Label)
			}
			for i, ms := range sw.PointMS {
				if ms <= 0 {
					t.Errorf("%s sweep %q point %d has no timing", e.ID, sw.Label, i)
				}
			}
		}
	}
}

// TestPerPointSeedsAreIndependent pins the seed-derivation contract:
// two identical configurations at different grid indices draw different
// traffic streams, so replicates are real replicates.
func TestPerPointSeedsAreIndependent(t *testing.T) {
	if a, b := harness.PointSeed(detScale.Seed, 0), harness.PointSeed(detScale.Seed, 1); a == b {
		t.Fatal("adjacent points share a seed")
	}
}
