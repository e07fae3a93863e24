// Package invariant implements the runtime watchdog: a network.Monitor
// that periodically audits a running simulation and fails the run
// loudly, with a structured violation, the moment it stops looking like
// a correct execution of the protocol — instead of letting a buggy or
// wedged run silently emit garbage tables.
//
// Four invariants are checked:
//
//   - Flit conservation: every injected flit is ejected, purged,
//     absorbed, dropped by a dying link, buffered, or in flight —
//     exactly once (network.FlitLedger).
//   - Deadlock: no worm's header may sit blocked at output allocation
//     for DeadlockWindow consecutive cycles. This is true deadlock
//     detection at the routers, distinct from CR's source timeouts
//     (which fire orders of magnitude earlier and kill the worm); a
//     worm that stays blocked this long has escaped every recovery
//     mechanism.
//   - Livelock: no worm may claim more than HopBudget channels in one
//     attempt (flit.Flit.Hops); misrouting must stay bounded.
//   - Delivery obligation: a message may only be abandoned
//     (MaxAttempts exhausted) if the fault timeline could actually have
//     disconnected its endpoints. An abandonment with the endpoints
//     connected and no fault event during the message's lifetime is a
//     protocol failure.
package invariant

import (
	"fmt"

	"crnet/internal/network"
)

// Kind classifies a violation.
type Kind uint8

const (
	// Conservation: the flit ledger does not balance.
	Conservation Kind = iota
	// Deadlock: a worm has been blocked past the deadlock window.
	Deadlock
	// Livelock: a worm has exceeded its hop budget.
	Livelock
	// Obligation: a message failed while its endpoints were connected.
	Obligation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Conservation:
		return "conservation"
	case Deadlock:
		return "deadlock"
	case Livelock:
		return "livelock"
	case Obligation:
		return "obligation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Violation is one detected invariant breach. It implements error.
type Violation struct {
	Kind   Kind
	Cycle  int64
	Detail string
}

// Error implements the error interface.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant violation [%s] at cycle %d: %s", v.Kind, v.Cycle, v.Detail)
}

// Config parameterizes the watchdog. The zero value enables every check
// with the defaults below.
type Config struct {
	// CheckEvery is the scan period in cycles; 0 means 64.
	CheckEvery int
	// DeadlockWindow is how many consecutive blocked cycles convict a
	// worm of deadlock; 0 means 2000 (far beyond any CR source timeout,
	// so healthy CR runs never trip it).
	DeadlockWindow int
	// HopBudget bounds channels claimed per attempt; 0 means
	// 8*diameter+64 (generous slack over minimal paths plus bounded
	// misrouting).
	HopBudget int
}

// Watchdog audits a running network. Construct with New and install via
// network.SetMonitor; a watchdog is stateful and belongs to exactly one
// network. It implements network.Monitor.
type Watchdog struct {
	cfg Config

	scans      int64
	violations []Violation
	seenFails  int // failure records already audited
	hopBudget  int // resolved on first scan (needs the topology)
}

// New returns a watchdog with the given configuration.
func New(cfg Config) *Watchdog {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 64
	}
	if cfg.DeadlockWindow <= 0 {
		cfg.DeadlockWindow = 2000
	}
	return &Watchdog{cfg: cfg}
}

// Scans returns how many audits have run.
func (w *Watchdog) Scans() int64 { return w.scans }

// Violations returns every violation recorded so far.
func (w *Watchdog) Violations() []Violation { return w.violations }

// AfterStep implements network.Monitor: every CheckEvery cycles it
// audits the network and returns the first violation found (which the
// network latches as its health error).
func (w *Watchdog) AfterStep(n *network.Network) error {
	if n.Cycle()%int64(w.cfg.CheckEvery) != 0 {
		return nil
	}
	return w.Audit(n)
}

// Audit runs one full scan immediately, regardless of the scan
// schedule, and returns the first new violation found (nil when the
// network passes every check). AfterStep calls it on schedule; the
// checkpoint bisector (sim.Bisect) calls it directly against restored
// snapshots, where the network is at an arbitrary cycle and no monitor
// is installed.
func (w *Watchdog) Audit(n *network.Network) error {
	w.scans++
	if w.hopBudget == 0 {
		w.hopBudget = w.cfg.HopBudget
		if w.hopBudget <= 0 {
			w.hopBudget = 8*n.Topology().Diameter() + 64
		}
	}
	before := len(w.violations)
	w.checkConservation(n)
	w.checkDeadlock(n)
	w.checkLivelock(n)
	w.checkObligations(n)
	if len(w.violations) > before {
		return w.violations[before]
	}
	return nil
}

func (w *Watchdog) report(n *network.Network, kind Kind, format string, args ...interface{}) {
	w.violations = append(w.violations, Violation{
		Kind:   kind,
		Cycle:  n.Cycle(),
		Detail: fmt.Sprintf(format, args...),
	})
}

func (w *Watchdog) checkConservation(n *network.Network) {
	if err := n.Ledger().Check(); err != nil {
		w.report(n, Conservation, "%v", err)
	}
}

func (w *Watchdog) checkDeadlock(n *network.Network) {
	blocked := n.BlockedWorms(w.cfg.DeadlockWindow)
	if len(blocked) == 0 {
		return
	}
	b := blocked[0]
	w.report(n, Deadlock,
		"%d worm(s) blocked >= %d cycles; first: worm %d.%d at node %d input (%d,%d), blocked %d cycles",
		len(blocked), w.cfg.DeadlockWindow,
		b.Worm.Message(), b.Worm.Attempt(), b.Node, b.Port, b.VC, b.Blocked)
}

func (w *Watchdog) checkLivelock(n *network.Network) {
	hops, worm := n.MaxHops()
	if hops <= w.hopBudget {
		return
	}
	w.report(n, Livelock, "worm %d.%d claimed %d channels, budget %d",
		worm.Message(), worm.Attempt(), hops, w.hopBudget)
}

// checkObligations audits new abandoned-message records. An abandonment
// is legitimate only if the fault timeline could have disconnected the
// endpoints: if they are connected now AND no fault event fired during
// the message's lifetime (so connectivity never changed underneath it),
// the protocol gave up on a deliverable message.
func (w *Watchdog) checkObligations(n *network.Network) {
	fails := n.MessageFailures()
	for _, f := range fails[w.seenFails:] {
		if n.LastFaultCycle() >= f.Created {
			continue // topology changed during its lifetime: plausible disconnect
		}
		if !n.Connected(f.Src, f.Dst) {
			continue // genuinely disconnected
		}
		w.report(n, Obligation,
			"message %d (%d->%d, created cycle %d) abandoned after %d attempts with endpoints connected and no fault during its lifetime",
			f.Msg, f.Src, f.Dst, f.Created, f.Attempts)
	}
	w.seenFails = len(fails)
}
