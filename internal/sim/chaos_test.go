package sim

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/routing"
	"crnet/internal/topology"

	"crnet/internal/network"
)

// soakScale is a reduced scale for the chaos tests: big enough for the
// fault timeline to actually fire, small enough for -race CI runs.
var soakScale = Scale{
	K:       8,
	MsgLen:  16,
	Warmup:  1000,
	Measure: 4000,
	Loads:   []float64{0.3},
	Seed:    1,
}

// TestChaosSoak runs the E24 chaos soak (random fail/repair timeline
// over links and nodes, invariant watchdog auditing every scan period)
// and requires every property row to PASS. The Makefile's chaos target
// runs exactly this test under the race detector.
func TestChaosSoak(t *testing.T) {
	tbl := E24ChaosSoak(soakScale)
	if fails := tbl.Failures(); len(fails) != 0 {
		t.Fatalf("chaos soak property failures: %v\n%s", fails, tbl.String())
	}
}

// TestE23FailRepairRecovers pins the E23 acceptance criteria: latency
// degrades while the links are down, returns to baseline after the
// settling window, and no message is ever abandoned (the network stays
// connected).
func TestE23FailRepairRecovers(t *testing.T) {
	// Quick scale: soakScale's shorter windows (~380 messages each) are
	// too noisy to separate recovery from sampling error.
	tbl := E23FailRepair(Quick)
	cell := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tbl.Row(row)[col], 64)
		if err != nil {
			t.Fatalf("row %d col %d %q: %v", row, col, tbl.Row(row)[col], err)
		}
		return v
	}
	baseline, faulted, recovered := cell(0, 2), cell(1, 2), cell(3, 2)
	if faulted < 1.1*baseline {
		t.Errorf("outage did not degrade latency: baseline %.1f, faulted %.1f", baseline, faulted)
	}
	if recovered > 1.25*baseline {
		t.Errorf("latency did not recover: baseline %.1f, recovered %.1f", baseline, recovered)
	}
	for p := 0; p < tbl.NumRows(); p++ {
		if failed := tbl.Row(p)[5]; failed != "0" {
			t.Errorf("phase %s abandoned %s messages while connected", tbl.Row(p)[0], failed)
		}
	}
	if t.Failed() {
		t.Fatalf("\n%s", tbl.String())
	}
}

// TestE9FaultSeedsDecorrelated pins E9's fault-schedule seeding: the
// splitmix64-derived seed per dead-link count is deterministic (same
// schedule on every call) and decorrelated (different counts draw from
// visibly different permutations, not nested prefixes of one stream).
func TestE9FaultSeedsDecorrelated(t *testing.T) {
	links := network.LinksOf(topology.NewTorus(8, 2))
	first := map[faults.LinkID]bool{}
	for _, dead := range []int{1, 2, 4, 8} {
		a := faults.RandomLinks(links, dead, 100, harness.PointSeed(1, 900+dead))
		b := faults.RandomLinks(links, dead, 100, harness.PointSeed(1, 900+dead))
		if fmt.Sprint(a.Events()) != fmt.Sprint(b.Events()) {
			t.Fatalf("dead=%d: schedule not deterministic", dead)
		}
		first[a.Events()[0].Link] = true
	}
	// A shared seed would make every schedule a prefix of the same
	// permutation (identical first pick); derived seeds must not.
	if len(first) < 2 {
		t.Fatalf("fault schedules share their first dead link %v: seeds correlated", first)
	}
}

// TestSweepSurvivesUnhealthyPoint is the crash-proof-harness integration
// test at the sim layer: a grid whose middle point deadlocks (plain
// adaptive routing, watchdog armed) completes anyway — the healthy
// points keep their metrics, the sick point lands in CollectErrors with
// the structured violation text.
func TestSweepSurvivesUnhealthyPoint(t *testing.T) {
	s := Scale{K: 4, MsgLen: 8, Warmup: 300, Measure: 2000, Seed: 1, Parallel: 2}
	var got []harness.PointError
	s.CollectErrors = func(label string, errs []harness.PointError) {
		if label != "mixed" {
			t.Errorf("errors reported for label %q", label)
		}
		got = append(got, errs...)
	}
	healthy := network.Config{
		Topo:     topology.NewTorus(4, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
	}
	sick := healthy
	sick.Protocol = core.Plain // 1 VC fully adaptive: deadlocks under load
	dog := &invariant.Config{DeadlockWindow: 400, CheckEvery: 50}
	pts := []Point{
		{Series: "ok", Pattern: "uniform", Load: 0.2, MsgLen: 8, Net: healthy, Watchdog: dog},
		{Series: "deadlock", Pattern: "tornado", Load: 0.9, MsgLen: 8, Net: sick, Watchdog: dog},
		{Series: "ok", Pattern: "uniform", Load: 0.3, MsgLen: 8, Net: healthy, Watchdog: dog},
	}
	ms := s.sweep("mixed", pts)
	if len(ms) != 3 {
		t.Fatalf("sweep returned %d results, want 3", len(ms))
	}
	if len(got) != 1 || got[0].Index != 1 {
		t.Fatalf("want exactly the deadlocked point in errors, got %+v", got)
	}
	if got[0].Kind != harness.PointErrKind {
		t.Fatalf("violation recorded as %q, want %q", got[0].Kind, harness.PointErrKind)
	}
	if ms[1] != (Metrics{}) {
		t.Fatalf("failed point slot not zeroed: %+v", ms[1])
	}
	for _, i := range []int{0, 2} {
		if ms[i].Delivered == 0 || ms[i].WatchdogScans == 0 {
			t.Fatalf("healthy point %d lost its metrics: %+v", i, ms[i])
		}
	}
}

// TestSweepPointTimeout: a point that cannot finish inside its
// wall-clock budget is cancelled and recorded as a timeout while the
// rest of the sweep completes.
func TestSweepPointTimeout(t *testing.T) {
	// A huge measurement window the 1ms budget cannot possibly cover;
	// the Cancel channel is polled every 1024 cycles, so cancellation
	// lands promptly regardless.
	s := Scale{K: 8, MsgLen: 16, Warmup: 1000, Measure: 50_000_000, Seed: 1,
		Parallel: 1, PointTimeout: time.Millisecond}
	var got []harness.PointError
	s.CollectErrors = func(_ string, errs []harness.PointError) { got = append(got, errs...) }
	net := network.Config{
		Topo:     topology.NewTorus(8, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
	}
	pts := []Point{{Series: "slow", Pattern: "uniform", Load: 0.3, MsgLen: 16, Net: net}}
	start := time.Now()
	s.sweep("slow", pts)
	if time.Since(start) > 2*time.Minute {
		t.Fatal("timed-out point was not cancelled")
	}
	if len(got) != 1 || got[0].Kind != harness.PointTimedOut {
		t.Fatalf("want one timeout error, got %+v", got)
	}
}
