package network

import (
	"bytes"
	"slices"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// blockedCfg is a saturated CR network, one VC and 2-flit buffers, in
// which heads wait on cached routes (router/alloc.go) while links fail
// and come back and retries may misroute around them. Each call builds
// a fresh timeline.
func blockedCfg() Config {
	return Config{
		Topo:          topology.NewTorus(4, 2),
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.CR,
		VCs:           1,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		MisrouteAfter: 2,
		MaxDetours:    2,
		Seed:          29,
		Faults: faults.RandomTimeline(faults.TimelineConfig{
			Links:    LinksOf(topology.NewTorus(4, 2)),
			LinkMTBF: 400, LinkMTTR: 40,
			Start: 50, Horizon: 400,
			Seed: 5,
		}),
		Check: true,
	}
}

// blockedSubmit offers every node a 6-flit message every fourth cycle,
// far past the torus's saturation.
func blockedSubmit(n *Network, cycle int64) {
	nodes := int64(n.Topology().Nodes())
	for src := int64(0); src < nodes; src++ {
		if (cycle+src)%4 != 0 {
			continue
		}
		dst := (src*5 + cycle/4 + 1) % nodes
		if dst == src {
			continue
		}
		n.SubmitMessage(flit.Message{
			ID:         flit.MessageID(cycle*nodes + src),
			Src:        topology.NodeID(src),
			Dst:        topology.NodeID(dst),
			DataLen:    6,
			CreateTime: cycle,
		})
	}
}

// TestResumeWithBlockedHeads checkpoints blockedCfg while its routers
// hold blocked heads — before, during and after its link outages — and
// resumes at 1, 2 and 7 ranges. A restore leaves every route cache
// empty, so the resumed routers route those heads afresh; the
// continuation must deliver the same messages and end in the same state
// as the unbroken run, whose heads kept their cached routes.
func TestResumeWithBlockedHeads(t *testing.T) {
	const M = 500
	run := func(n *Network, to int64, log *[]string) { snapRunWith(n, to, log, blockedSubmit) }
	ref := New(blockedCfg())
	var refLog []string
	run(ref, M, &refLog)
	refFinal := saveBytes(ref)
	if st := ref.RouterStats(); len(refLog) == 0 || st.Misroutes == 0 || st.BlockedHeaders == 0 {
		t.Fatalf("the reference run delivered %d messages, blocked %d header-cycles and misrouted %d times; the test is vacuous",
			len(refLog), st.BlockedHeaders, st.Misroutes)
	}
	for _, k := range []int64{60, 200, 260, 400} {
		first := New(blockedCfg())
		var log []string
		run(first, k, &log)
		b := len(first.BlockedWorms(1))
		if b == 0 {
			t.Fatalf("cycle %d: no head is blocked; the test is vacuous", k)
		}
		t.Logf("cycle %d: %d blocked heads", k, b)
		ckpt := saveBytes(first)
		for _, shards := range goldenShards() {
			cfg := blockedCfg()
			cfg.Shards = shards
			resumed := New(cfg)
			mustLoad(t, resumed, ckpt)
			resumedLog := slices.Clone(log)
			run(resumed, M, &resumedLog)
			if !slices.Equal(resumedLog, refLog) {
				t.Fatalf("resumed at cycle %d with %d ranges: delivery log diverged from the unbroken run", k, shards)
			}
			if !bytes.Equal(saveBytes(resumed), refFinal) {
				t.Fatalf("resumed at cycle %d with %d ranges: final state differs from the unbroken run", k, shards)
			}
		}
	}
}
