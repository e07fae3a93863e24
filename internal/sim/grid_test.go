package sim

import (
	"bytes"
	"strings"
	"testing"

	"crnet/internal/network"
	"crnet/internal/router"
)

func TestSweepPreservesGridOrder(t *testing.T) {
	s := tiny
	s.Parallel = 4
	// Points at clearly separated loads: results must come back in grid
	// order, not completion order (the light points finish first).
	pts := []Point{
		{Series: "hi", Pattern: "uniform", Load: 0.8, MsgLen: 8, Net: s.crNet()},
		{Series: "lo", Pattern: "uniform", Load: 0.1, MsgLen: 8, Net: s.crNet()},
		{Series: "hi", Pattern: "uniform", Load: 0.8, MsgLen: 8, Net: s.crNet()},
		{Series: "lo", Pattern: "uniform", Load: 0.1, MsgLen: 8, Net: s.crNet()},
	}
	ms := s.sweep("order", pts)
	if len(ms) != len(pts) {
		t.Fatalf("%d results for %d points", len(ms), len(pts))
	}
	for i, p := range pts {
		if ms[i].OfferedFrac != p.Load {
			t.Fatalf("result %d has load %v, point has %v: order lost", i, ms[i].OfferedFrac, p.Load)
		}
	}
}

func TestSweepPerPointSeedsDiffer(t *testing.T) {
	s := tiny
	s.Parallel = 1
	// Two identical points (replicates) must see different traffic
	// streams via their grid index, hence (almost surely) different
	// delivered counts or latencies.
	pts := []Point{
		{Series: "r0", Pattern: "uniform", Load: 0.5, MsgLen: 8, Net: s.crNet()},
		{Series: "r1", Pattern: "uniform", Load: 0.5, MsgLen: 8, Net: s.crNet()},
	}
	ms := s.sweep("reps", pts)
	if ms[0] == ms[1] {
		t.Fatalf("replicates produced identical metrics — per-point seeding is broken: %+v", ms[0])
	}
}

func TestSweepProgressAndCollect(t *testing.T) {
	s := tiny
	s.Parallel = 2
	var buf bytes.Buffer
	s.Progress = &buf
	var label string
	var timings []float64
	s.Collect = func(l string, pointMS []float64) { label, timings = l, pointMS }

	pts := s.loadGrid("CR", "uniform", s.crNet())
	s.sweep("E1", pts)

	if label != "E1" {
		t.Fatalf("Collect label = %q", label)
	}
	if len(timings) != len(pts) {
		t.Fatalf("%d timings for %d points", len(timings), len(pts))
	}
	for i, ms := range timings {
		if ms <= 0 {
			t.Fatalf("point %d has non-positive wall-clock %v", i, ms)
		}
	}
	// The final progress line always prints.
	if !strings.Contains(buf.String(), "E1: 2/2 points (100%)") {
		t.Fatalf("progress output missing completion line:\n%s", buf.String())
	}
}

func TestLoadGrid(t *testing.T) {
	pts := tiny.loadGrid("CR", "transpose", tiny.crNet())
	if len(pts) != len(tiny.Loads) {
		t.Fatalf("%d points for %d loads", len(pts), len(tiny.Loads))
	}
	for i, p := range pts {
		if p.Load != tiny.Loads[i] || p.Series != "CR" || p.Pattern != "transpose" || p.MsgLen != tiny.MsgLen {
			t.Fatalf("point %d malformed: %+v", i, p)
		}
	}
}

// A Scale-level buffer organization (crbench -buforg) is the default the
// network constructors hand out, not an override: every E31 arm sets
// its own organization, so the table — its fifo rows included — is the
// same under -buforg damq as without it. (Comparing the fifo and damq
// series to each other would prove nothing: they sit at different grid
// indices and so draw different traffic anyway.)
func TestE31ArmsKeepTheirOwnBufOrg(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E31 twice at tiny scale")
	}
	underDAMQ := tiny
	underDAMQ.BufOrg = router.OrgDAMQ
	want, got := E31BufferOrgs(tiny).String(), E31BufferOrgs(underDAMQ).String()
	if got != want {
		t.Fatalf("Scale.BufOrg=damq changed E31, whose arms each pick their organization:\n--- default ---\n%s--- damq ---\n%s", want, got)
	}
}

// The Scale-level Shards and BufOrg reach a network through the
// constructors, which is the only place they are applied.
func TestScaleDefaultsReachConstructors(t *testing.T) {
	s := tiny
	s.Shards, s.BufOrg = 2, router.OrgCreditShared
	for name, c := range map[string]network.Config{"crNet": s.crNet(), "fcrNet": s.fcrNet(), "dorNet": s.dorNet(1, 4)} {
		if c.Shards != 2 || c.BufOrg != router.OrgCreditShared {
			t.Errorf("%s: Shards=%d BufOrg=%v, want 2 and shared", name, c.Shards, c.BufOrg)
		}
	}
}
