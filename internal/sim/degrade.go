package sim

import (
	"fmt"

	"crnet/internal/core"
	snap "crnet/internal/snapshot"
	"crnet/internal/stats"
)

// Graceful degradation: when observed health worsens — the watchdog
// latches, fault density spikes, or delivered latency breaches its SLO
// — the right move for a fabric serving live traffic is to shed offered
// load, not to keep stuffing a struggling network until it collapses.
// The Degrader is a deterministic three-state controller
// (healthy → degraded → shedding) with hysteresis: it walks states on
// consecutive breached/clean control windows and gates submissions
// through a core.Throttle, so the same run always sheds the same
// messages and sweeps stay byte-reproducible.

// DegradeState is the controller's position in the degradation ladder.
type DegradeState uint8

const (
	// DegradeHealthy admits all offered traffic.
	DegradeHealthy DegradeState = iota
	// DegradeDegraded throttles admissions to DegradedPermille.
	DegradeDegraded
	// DegradeShedding throttles admissions to SheddingPermille.
	DegradeShedding
)

func (s DegradeState) String() string {
	switch s {
	case DegradeHealthy:
		return "healthy"
	case DegradeDegraded:
		return "degraded"
	case DegradeShedding:
		return "shedding"
	}
	return "invalid"
}

// DegradeConfig parameterizes the controller. The zero value of every
// field selects a sensible default except LatencySLO, which is required
// (there is no universal latency target).
type DegradeConfig struct {
	// LatencySLO is the delivered-latency objective in cycles: a control
	// window whose p95 delivery latency exceeds it counts as breached.
	LatencySLO int64
	// Window is the control-window length in cycles (default 512).
	Window int64
	// FailBudget marks a window breached when it applies at least this
	// many fault failure events; 0 disables the failure-density signal.
	FailBudget int64
	// EnterAfter consecutive breached windows step the controller one
	// state down the ladder (default 2). ExitAfter consecutive clean
	// windows step it back up (default 4, slower out than in).
	EnterAfter int
	ExitAfter  int
	// DegradedPermille/SheddingPermille are the admitted fractions, in
	// thousandths, for the two throttled states (defaults 700 and 400).
	DegradedPermille int64
	SheddingPermille int64
}

func (c DegradeConfig) window() int64 {
	if c.Window <= 0 {
		return 512
	}
	return c.Window
}

func (c DegradeConfig) enterAfter() int {
	if c.EnterAfter <= 0 {
		return 2
	}
	return c.EnterAfter
}

func (c DegradeConfig) exitAfter() int {
	if c.ExitAfter <= 0 {
		return 4
	}
	return c.ExitAfter
}

func (c DegradeConfig) degradedPermille() int64 {
	if c.DegradedPermille <= 0 {
		return 700
	}
	return c.DegradedPermille
}

func (c DegradeConfig) sheddingPermille() int64 {
	if c.SheddingPermille <= 0 {
		return 400
	}
	return c.SheddingPermille
}

// Degrader is the stateful controller. Drive it with Admit per offered
// message, Observe per delivery, and EndCycle once per cycle.
type Degrader struct {
	cfg   DegradeConfig //cr:nosnap configuration, fixed at construction
	state DegradeState
	gate  core.Throttle

	// Per-window accounting, reset at each window boundary.
	winLatency  *stats.Histogram
	winFails0   int64 // FaultEventsApplied at the window's start
	winAdmitted int64
	winDeliv    int64

	breaches int // consecutive breached windows
	cleans   int // consecutive clean windows

	// Cumulative counters for availability accounting.
	shed            int64
	transitions     int64
	breachedWindows int64
}

// NewDegrader builds a controller in the healthy state.
func NewDegrader(cfg DegradeConfig) *Degrader {
	d := &Degrader{cfg: cfg}
	// Bucket width scales with the SLO so the p95 read at the breach
	// threshold is sharp; the overflow bucket catches the rest.
	w := cfg.LatencySLO / 64
	if w < 1 {
		w = 1
	}
	d.winLatency = stats.NewHistogram(w, 256)
	d.applyState()
	return d
}

func (d *Degrader) applyState() {
	switch d.state {
	case DegradeHealthy:
		d.gate.SetRate(1, 1)
	case DegradeDegraded:
		d.gate.SetRate(d.cfg.degradedPermille(), 1000)
	case DegradeShedding:
		d.gate.SetRate(d.cfg.sheddingPermille(), 1000)
	}
}

// Admit consumes one offered message and reports whether to submit it;
// a false return is a shed message, counted for availability.
func (d *Degrader) Admit() bool {
	if d.gate.Allow() {
		d.winAdmitted++
		return true
	}
	d.shed++
	return false
}

// Observe records one delivered message's latency in cycles.
func (d *Degrader) Observe(latency int64) {
	d.winDeliv++
	d.winLatency.Add(latency)
}

// EndCycle closes out cycle now: on a window boundary it scores the
// window against the health signals, walks the hysteresis ladder, and
// opens the next window. failEvents is the network's cumulative
// FaultEventsApplied; healthy is whether the watchdog latch is clear.
func (d *Degrader) EndCycle(now int64, failEvents int64, healthy bool) {
	w := d.cfg.window()
	if now == 0 || now%w != 0 {
		return
	}
	breached := !healthy
	if !breached && d.cfg.LatencySLO > 0 && d.winLatency.N() > 0 &&
		d.winLatency.Percentile(0.95) > d.cfg.LatencySLO {
		breached = true
	}
	if !breached && d.cfg.FailBudget > 0 && failEvents-d.winFails0 >= d.cfg.FailBudget {
		breached = true
	}
	// A window that admitted traffic but delivered nothing is a stall
	// the latency signal cannot see (no deliveries, no percentile).
	if !breached && d.winAdmitted > 0 && d.winDeliv == 0 {
		breached = true
	}

	if breached {
		d.breachedWindows++
		d.breaches++
		d.cleans = 0
		if d.breaches >= d.cfg.enterAfter() && d.state < DegradeShedding {
			d.state++
			d.transitions++
			d.breaches = 0
			d.applyState()
		}
	} else {
		d.cleans++
		d.breaches = 0
		if d.cleans >= d.cfg.exitAfter() && d.state > DegradeHealthy {
			d.state--
			d.transitions++
			d.cleans = 0
			d.applyState()
		}
	}

	d.winLatency.Reset()
	d.winFails0 = failEvents
	d.winAdmitted, d.winDeliv = 0, 0
}

// State returns the controller's current position.
func (d *Degrader) State() DegradeState { return d.state }

// Shed returns how many offered messages were shed in total.
func (d *Degrader) Shed() int64 { return d.shed }

// Transitions returns how many state changes the controller has made.
func (d *Degrader) Transitions() int64 { return d.transitions }

// BreachedWindows returns how many control windows scored as breached.
func (d *Degrader) BreachedWindows() int64 { return d.breachedWindows }

// SaveState serializes the controller (config is not serialized; the
// owner reconstructs the Degrader from the same DegradeConfig).
func (d *Degrader) SaveState(e *snap.Encoder) {
	e.U8(uint8(d.state))
	d.gate.SaveState(e)
	d.winLatency.SaveState(e)
	e.Varint(d.winFails0)
	e.Varint(d.winAdmitted)
	e.Varint(d.winDeliv)
	e.Int(d.breaches)
	e.Int(d.cleans)
	e.Varint(d.shed)
	e.Varint(d.transitions)
	e.Varint(d.breachedWindows)
}

// LoadState restores a state saved by SaveState into a controller built
// from the same DegradeConfig.
func (d *Degrader) LoadState(dec *snap.Decoder) error {
	state := DegradeState(dec.U8())
	if state > DegradeShedding {
		return fmt.Errorf("sim: snapshot degrade state %d out of range", state)
	}
	if err := d.gate.LoadState(dec); err != nil {
		return err
	}
	if err := d.winLatency.LoadState(dec); err != nil {
		return err
	}
	winFails0 := dec.Varint()
	winAdmitted := dec.Varint()
	winDeliv := dec.Varint()
	breaches := dec.Int()
	cleans := dec.Int()
	shed := dec.Varint()
	transitions := dec.Varint()
	breachedWindows := dec.Varint()
	if err := dec.Err(); err != nil {
		return err
	}
	d.state = state
	d.winFails0 = winFails0
	d.winAdmitted, d.winDeliv = winAdmitted, winDeliv
	d.breaches, d.cleans = breaches, cleans
	d.shed = shed
	d.transitions, d.breachedWindows = transitions, breachedWindows
	return nil
}
