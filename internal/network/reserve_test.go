package network

import (
	"bytes"
	"reflect"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// Tests for the router reserve (routerAt): routers are built a block at
// a time, and nothing observable depends on it.

// On the 8x8 torus of reserveCfg, resEarly's first touch reserves its
// block, resLate included — at every range count, since even 7 ranges
// put no boundary between them — and link (resLate, 0) fails at cycle
// resFail, after resLate was reserved and before its first touch.
const (
	resK     = 8
	resEarly = 25
	resLate  = 27
	resFail  = 2
	resMid   = 300
	resEnd   = 600
)

func reserveCfg(shards int) Config {
	return Config{
		Topo:     topology.NewTorus(resK, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     3,
		Shards:   shards,
		Faults: faults.NewSchedule([]faults.Event{
			{Cycle: resFail, Link: faults.LinkID{Node: resLate, Port: 0}},
			{Cycle: 400, Link: faults.LinkID{Node: resLate, Port: 0}, Up: true},
		}),
		Check: true,
	}
}

// reserveTouches is a scattered first-touch order: resEarly, then a
// seeded draw of 23 other nodes, resLate excluded.
func reserveTouches() []int {
	perm := make([]int, resK*resK)
	rng.New(0x7E5E7).Perm(perm)
	out := []int{resEarly}
	for _, id := range perm {
		if id != resEarly && id != resLate && len(out) < 24 {
			out = append(out, id)
		}
	}
	return out
}

// reserveSubmit offers one message every fourth cycle between keyed
// random nodes, so the routers traffic touches first are scattered too.
func reserveSubmit(n *Network) {
	c := uint64(n.Cycle())
	if c%4 != 0 {
		return
	}
	nodes := n.nodes
	src := rng.Intn(rng.At(3, 1, c, 0), nodes)
	dst := (src + 1 + rng.Intn(rng.At(3, 1, c, 1), nodes-1)) % nodes
	n.SubmitMessage(flit.Message{
		ID:         flit.MessageID(c/4 + 1),
		Src:        topology.NodeID(src),
		Dst:        topology.NodeID(dst),
		DataLen:    6,
		CreateTime: int64(c),
	})
}

// reserveRun steps n under reserveSubmit up to cycle `to` and returns
// the deliveries.
func reserveRun(n *Network, to int64) []core.Delivery {
	var out []core.Delivery
	for n.Cycle() < to {
		reserveSubmit(n)
		n.Step()
		out = append(out, n.DrainDeliveries()...)
	}
	return out
}

// reservedRouter reports whether node id's router is held in its
// range's reserve.
func reservedRouter(n *Network, id int) bool {
	sh := n.shardOf(topology.NodeID(id))
	blk := sh.reserve[id/routerBlock-sh.lo/routerBlock]
	return blk != nil && blk[id%routerBlock] != nil
}

// checkReserve asserts the reserve's invariant: a block of a range is
// reserved iff one of the range's routers in it is built, and then each
// of those ids is either built or held in the reservation — never both,
// and the reservation holds nothing else.
func checkReserve(t *testing.T, n *Network) {
	t.Helper()
	for si := range n.shards {
		sh := &n.shards[si]
		for b, blk := range sh.reserve {
			first := (sh.lo/routerBlock + b) * routerBlock
			anyBuilt := false
			for j := 0; j < routerBlock; j++ {
				id := first + j
				inRange := id >= sh.lo && id < sh.hi
				isBuilt := inRange && n.routers[id] != nil
				anyBuilt = anyBuilt || isBuilt
				if blk == nil {
					continue
				}
				switch r := blk[j]; {
				case r != nil && !inRange:
					t.Fatalf("range %d [%d,%d) reserves node %d", si, sh.lo, sh.hi, id)
				case r != nil && isBuilt:
					t.Fatalf("range %d: node %d is both built and reserved", si, id)
				case r == nil && inRange && !isBuilt:
					t.Fatalf("range %d: node %d in a reserved block is neither built nor reserved", si, id)
				case r != nil && int(r.ID()) != id:
					t.Fatalf("range %d: slot of node %d holds router %d", si, id, r.ID())
				}
			}
			if (blk != nil) != anyBuilt {
				t.Fatalf("range %d: block at %d reserved=%t, built routers in it=%t", si, first, blk != nil, anyBuilt)
			}
		}
	}
}

// TestShardedReservation: at 1, 2 and 7 ranges (7 puts range boundaries
// inside blocks), routers touched in a scattered order are exactly the
// routers a checkpoint names, and the saves are byte-identical across
// range counts. A router reserved before its link failed comes up at
// its first touch with that port down. Under scattered traffic, a run
// restored mid-way into another partition — one that had built and
// reserved routers of its own — resumes as the unbroken run.
func TestShardedReservation(t *testing.T) {
	restoreInto := map[int]int{1: 7, 2: 1, 7: 2}
	var touchSave, endSave []byte
	for _, s := range []int{1, 2, 7} {
		n := New(reserveCfg(s))
		touched := make([]bool, n.nodes)
		for _, id := range reserveTouches() {
			n.routerAt(topology.NodeID(id))
			touched[id] = true
			checkReserve(t, n)
		}
		if !reservedRouter(n, resLate) {
			t.Fatalf("shards=%d: touching node %d did not reserve node %d", s, resEarly, resLate)
		}
		for n.Cycle() <= resFail {
			n.Step()
		}
		if n.linkAt(resLate, 0).up() {
			t.Fatalf("shards=%d: link (%d,0) did not fail at cycle %d", s, resLate, resFail)
		}
		if n.routerAt(resLate).LinkUp(0) {
			t.Fatalf("shards=%d: router %d, reserved before its link failed, came up with port 0 live", s, resLate)
		}
		touched[resLate] = true
		checkReserve(t, n)

		ckpt := saveBytes(n)
		named := New(reserveCfg(1))
		mustLoad(t, named, ckpt)
		for id := range touched {
			if built, saved := n.routers[id] != nil, named.routers[id] != nil; built != touched[id] || saved != touched[id] {
				t.Fatalf("shards=%d: node %d touched=%t built=%t named by the checkpoint=%t", s, id, touched[id], built, saved)
			}
		}
		if touchSave == nil {
			touchSave = ckpt
		} else if !bytes.Equal(ckpt, touchSave) {
			t.Fatalf("shards=%d: save after the touches differs from one range's", s)
		}

		reserveRun(n, resMid)
		mid := saveBytes(n)
		want := reserveRun(n, resEnd)
		end := saveBytes(n)
		checkReserve(t, n)
		if len(want) == 0 {
			t.Fatalf("shards=%d: nothing delivered after the checkpoint", s)
		}
		if endSave == nil {
			endSave = end
		} else if !bytes.Equal(end, endSave) {
			t.Fatalf("shards=%d: final save differs from one range's", s)
		}

		r := New(reserveCfg(restoreInto[s]))
		mustLoad(t, r, ckpt)
		checkReserve(t, r)
		mustLoad(t, r, mid)
		checkReserve(t, r)
		if got := reserveRun(r, resEnd); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d restored into %d ranges: %d deliveries after the restore, unbroken run %d (or same count, different stream)",
				s, restoreInto[s], len(got), len(want))
		}
		if !bytes.Equal(saveBytes(r), end) {
			t.Fatalf("shards=%d restored into %d ranges: final save differs from the unbroken run's", s, restoreInto[s])
		}
		checkReserve(t, r)
	}
}
