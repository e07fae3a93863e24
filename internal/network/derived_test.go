package network

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// A checkpoint carries no worklists and no router output holders:
// LoadState derives both from the restored components (snapshot.go).
// The live lists can hold members the derived ones lack — a router an
// FKILL purged after transmit, an idle injector a stale FKILL scheduled
// — and a live router's released outputs keep their last owner, which a
// restore zeroes. The tests here find cycles where the restored network
// really does differ from the live one in those ways and require the
// continuation to be identical anyway.

// derivedCfg is an FCR network under heavy transient corruption whose
// live worklists outgrow the derived ones. Two neighbours of node 0 send
// it short messages, so its ejection channel is contended and a worm
// queues at node 0 behind another: an FKILL that purges the queued worm
// after transmit leaves the router empty but listed. Padding is removed
// (PadAdjust) and the path-wide router timeout is on, so a worm fits its
// injection buffer and a router can time out a header whose source has
// finished injecting it: the FKILL reaches an idle injector during
// allocation, after the injector phase pruned the list, and leaves it
// listed.
func derivedCfg() Config {
	return Config{
		Topo:          topology.NewTorus(4, 2),
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		BufDepth:      4,
		RouterTimeout: 4,
		PadAdjust:     -100,
		TransientRate: 5e-2,
		Seed:          13,
		Check:         true,
	}
}

// derivedSubmit is derivedCfg's schedule: nodes 1 and 4 each send node 0
// a 3..6-flit message every seventh cycle.
func derivedSubmit(n *Network, cycle int64) {
	nodes := int64(n.Topology().Nodes())
	for _, src := range []int64{1, 4} {
		if (cycle+src)%7 == 0 {
			n.SubmitMessage(flit.Message{
				ID:         flit.MessageID(cycle*nodes + src),
				Src:        topology.NodeID(src),
				Dst:        0,
				DataLen:    int(3 + (cycle+src)%4),
				CreateTime: cycle,
			})
		}
	}
}

// liveLists returns the ids on the network's router and injector
// worklists, merged over the ranges: ascending, since the ranges are.
func liveLists(n *Network) (activeR, activeI []int32) {
	for i := range n.shards {
		activeR = members(&n.shards[i].activeR, activeR)
		activeI = members(&n.shards[i].activeI, activeI)
	}
	return activeR, activeI
}

// derivedLists returns the worklists LoadState would build for the
// network's components as they stand.
func derivedLists(n *Network) (activeR, activeI []int32) {
	for id := 0; id < n.nodes; id++ {
		if r := n.routers[id]; r != nil && r.Busy() {
			activeR = append(activeR, int32(id))
		}
		if in := n.injectors[id]; in != nil && hasWork(in) {
			activeI = append(activeI, int32(id))
		}
	}
	return activeR, activeI
}

// staleOwners counts the router's unheld output VCs whose last owner is
// not input (0,0), the value a restore gives them. The state is
// unexported and nothing outside the router reads it, so the test reads
// it by reflection.
func staleOwners(r *router.Router) int {
	arena := reflect.ValueOf(r).Elem().FieldByName("outArena")
	stale := 0
	for i := 0; i < arena.Len(); i++ {
		ov := arena.Index(i)
		if !ov.FieldByName("held").Bool() && (ov.FieldByName("ownerP").Int() != 0 || ov.FieldByName("ownerV").Int() != 0) {
			stale++
		}
	}
	return stale
}

// TestResumeAcrossDerivedWorklists scans a window of derivedCfg's run
// for cycle boundaries where the live router or injector worklist
// differs from the derived one, or where a router holds a released
// output with a non-zero stale owner, and resumes from each list
// boundary and the first stale-owner one at 1, 2 and 7 ranges: the
// continuation must deliver the same messages and end in the same state
// as the unbroken run.
func TestResumeAcrossDerivedWorklists(t *testing.T) {
	const M = 1200
	run := func(n *Network, to int64, log *[]string) { snapRunWith(n, to, log, derivedSubmit) }
	ref := New(derivedCfg())
	var refLog []string
	var diffR, diffI []int64 // boundaries where a live list outgrew the derived one
	firstStale, stale := int64(-1), 0
	for ref.Cycle() < M {
		run(ref, ref.Cycle()+1, &refLog)
		liveR, liveI := liveLists(ref)
		wantR, wantI := derivedLists(ref)
		if !slices.Equal(liveR, wantR) {
			if !isSuperset(liveR, wantR) {
				t.Fatalf("cycle %d: live router list %v lacks a busy router of %v", ref.Cycle(), liveR, wantR)
			}
			diffR = append(diffR, ref.Cycle())
		}
		if !slices.Equal(liveI, wantI) {
			if !isSuperset(liveI, wantI) {
				t.Fatalf("cycle %d: live injector list %v lacks a working injector of %v", ref.Cycle(), liveI, wantI)
			}
			diffI = append(diffI, ref.Cycle())
		}
		if firstStale < 0 {
			for _, r := range ref.routers {
				if r != nil && staleOwners(r) > 0 {
					stale++
				}
			}
			if stale > 0 {
				firstStale = ref.Cycle()
			}
		}
	}
	t.Logf("cycles 1..%d: the router list outgrew the derived one at %d boundaries %v, the injector list at %d %v; %d routers hold stale owners at cycle %d",
		M, len(diffR), diffR, len(diffI), diffI, stale, firstStale)
	if len(diffR) == 0 || len(diffI) == 0 || firstStale < 0 {
		t.Fatal("the window never made a live list differ from the derived one, or left no stale owner; the test is vacuous")
	}
	refFinal := saveBytes(ref)

	for _, k := range append(append(diffR, diffI...), firstStale) {
		first := New(derivedCfg())
		var log []string
		run(first, k, &log)
		ckpt := saveBytes(first)
		for _, shards := range goldenShards() {
			cfg := derivedCfg()
			cfg.Shards = shards
			resumed := New(cfg)
			mustLoad(t, resumed, ckpt)
			resumedLog := append([]string(nil), log...)
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

// isSuperset reports whether sorted a contains every element of sorted b.
func isSuperset(a, b []int32) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
	}
	return true
}
