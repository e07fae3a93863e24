package network

import "fmt"

// The scan-everything reference stepper. It states a cycle the way the
// pre-worklist kernel did — visit every link and every constructed
// router, injector and receiver, in ascending order, every cycle — by
// overwriting the single range's node worklists with a full scan before
// each phase body runs, so nothing the production activation bookkeeping
// put (or forgot to put) in them is ever read, and by checking the
// busy-link list, which holds the in-flight flits, against a link scan.
// The per-component work is the production bodies'; what is under test
// is only which components the worklists select.
// TestActiveSetMatchesBruteForce steps it against Step, cycle by cycle.

// stepReference is Step (engine.go) with a scan in front of every phase
// that walks a worklist. It needs the one-range partition.
func stepReference(n *Network) {
	if len(n.shards) != 1 {
		panic("stepReference: reference stepper wants Config.Shards <= 1")
	}
	sh := &n.shards[0]
	n.phaseSignals()
	// The busy list carries the in-flight flits themselves, so a scan
	// cannot rebuild it; it checks the list names every busy link, in
	// order, and nothing else.
	i := 0
	for id := 0; id < n.nodes; id++ {
		for p := 0; p < n.deg; p++ {
			if !n.linkAt(id, p).busy {
				continue
			}
			if i >= len(sh.busyLinks) || sh.busyLinks[i].ref != (linkRef{node: int32(id), port: int32(p)}) {
				panic(fmt.Sprintf("stepReference: cycle %d: busy link (%d,%d) is not busy-list entry %d", n.cycle, id, p, i))
			}
			i++
		}
	}
	if i != len(sh.busyLinks) {
		panic(fmt.Sprintf("stepReference: cycle %d: %d busy links, %d busy-list entries", n.cycle, i, len(sh.busyLinks)))
	}
	arrived := n.prepassArrivals()
	n.shardArrivals(sh)
	n.phaseFaultEvents()
	scanInto(&sh.activeI, len(n.injectors), func(id int) bool { return n.injectors[id] != nil })
	n.shardInjectors(sh)
	n.mergeBarrier()
	constructedRouter := func(id int) bool { return n.routers[id] != nil }
	scanInto(&sh.activeR, len(n.routers), constructedRouter)
	n.shardAllocate(sh)
	n.mergeBarrier()
	scanInto(&sh.activeR, len(n.routers), constructedRouter)
	n.shardTransmit(sh)
	moved := n.mergeBarrier()
	scanInto(&sh.recvPend, len(n.receivers), func(id int) bool { return n.receivers[id] != nil })
	n.shardCredits(sh)
	n.mergeBarrier()
	n.finishStep(arrived || moved)
}

// scanInto replaces set's contents with every id in [0, count) that
// satisfies has, ascending.
func scanInto(set *nodeSet, count int, has func(id int) bool) {
	set.reset()
	for id := 0; id < count; id++ {
		if has(id) {
			set.add(int32(id))
		}
	}
}
