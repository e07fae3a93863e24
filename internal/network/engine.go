package network

import "fmt"

// Hooks is the single seam through which external machinery attaches to
// the cycle kernel. Everything that is not the network itself — the
// invariant watchdog, the metrics sampler — plugs in here; the kernel
// consults each at one documented point of Step and nowhere else. (The
// permanent-fault timeline is simulation state, not an attachment: it
// is Config.Faults, read in the fault-events phase.)
type Hooks struct {
	// Monitor runs after the seven phases, before the cycle counter
	// advances (it sees the network state at the end of cycle N with
	// Cycle() == N). Its first error latches the network unhealthy (see
	// Health); subsequent cycles skip it.
	Monitor Monitor

	// Observer runs last, after the cycle counter has advanced, with the
	// just-completed cycle number. Metric samplers hook in here: polled
	// gauges see the post-step state exactly as external callers polling
	// between Step calls would.
	Observer func(cycle int64)
}

// SetHooks installs the hook set, replacing any previous one.
func (n *Network) SetHooks(h Hooks) { n.hooks = h }

// Step advances the simulation one cycle. Its body is the authoritative,
// ordered statement of what one simulated cycle does: determinism
// depends on this order and on every phase iterating its worklist in
// ascending (node, port) order (see the package comment for why signals
// precede arrivals). Phases named phase*/prepass*/apply* run on the
// calling goroutine — the coordinator; forkJoin runs a phase body once
// per node range (inline for one range, one goroutine each for several;
// see shard.go), and mergeBarrier folds the ranges' side effects back
// in range order, so results are byte-identical for every Config.Shards.
func (n *Network) Step() {
	n.phaseSignals()
	arrived := n.prepassArrivals()
	n.forkJoin(spArrivals)
	n.phaseFaultEvents()
	n.forkJoin(spInjectors)
	n.mergeBarrier()
	n.forkJoin(spAllocate)
	n.mergeBarrier()
	n.forkJoin(spTransmit)
	moved := n.mergeBarrier()
	n.forkJoin(spCredits)
	n.mergeBarrier()
	n.finishStep(arrived || moved)
}

// finishStep is the per-cycle epilogue: the progress clock (progressed
// reports whether any flit moved across a switch or arrived over a
// link), invariant checks, the Monitor hook, the cycle increment, and
// the Observer hook.
func (n *Network) finishStep(progressed bool) {
	if progressed {
		n.lastProgress = n.cycle
	}
	if n.cfg.Check {
		if err := n.checkNetwork(); err != nil {
			panic(fmt.Sprintf("cycle %d: %v", n.cycle, err))
		}
	}
	if n.hooks.Monitor != nil && n.health == nil {
		if err := n.hooks.Monitor.AfterStep(n); err != nil {
			n.health = err
		}
	}
	n.cycle++
	if n.hooks.Observer != nil {
		n.hooks.Observer(n.cycle - 1)
	}
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}
