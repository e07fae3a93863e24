package faults

import (
	"fmt"
	"math"

	"crnet/internal/rng"
	"crnet/internal/snapshot"
)

// Load-coupled failure intensity: real fabrics fail more when hot. The
// Hazard process couples each entity's failure rate to its observed
// utilization with the classic log-linear model
//
//	lambda(t) = lambda0 * exp(alpha * load(t))
//
// where load is the entity's utilization in [0,1] over the last
// evaluation window (link: traversals per cycle; router: buffer
// occupancy fraction). Every EvalEvery cycles each *up* entity makes
// exactly one Bernoulli draw against p = 1 - exp(-lambda*dt), keyed by
// (seed, entity, evaluation cycle) (deterministic thinning), so the
// failure pattern is a pure function of (seed, load history): sweeps
// stay byte-reproducible across worker counts, and the process state a
// checkpoint carries is timers and counters, no generator words.
//
// A failed entity draws a repair sojourn (shifted geometric around the
// configured MTTR) keyed by the cycle it failed at and stays silent
// until the repair fires, so every hazard failure is eventually repaired
// and the long-run process is a load-modulated alternating renewal
// process.

// HazardSpec configures the load-coupled failure-intensity process. The
// spec is immutable configuration (state lives in Hazard), so one spec
// value can be shared across sweep points and reconstructed networks.
type HazardSpec struct {
	// LinkLambda0 is the per-link base failure intensity per cycle at
	// zero load; 0 disables link failures.
	LinkLambda0 float64
	// NodeLambda0 is the per-router base failure intensity per cycle at
	// zero load; 0 disables router failures.
	NodeLambda0 float64
	// Alpha is the load-coupling exponent: lambda = lambda0*exp(alpha*load).
	// 0 makes the process load-independent.
	Alpha float64
	// LinkMTTR and NodeMTTR are mean repair sojourns in cycles (>= 1).
	LinkMTTR float64
	NodeMTTR float64
	// EvalEvery is the evaluation period in cycles; 0 means 64.
	EvalEvery int64
	// Seed keys the thinning and repair draws (rng.HazardFail,
	// rng.HazardRepair).
	Seed uint64
}

func (s HazardSpec) evalEvery() int64 {
	if s.EvalEvery <= 0 {
		return 64
	}
	return s.EvalEvery
}

// Hazard is the stateful load-coupled failure process over a fixed
// entity set (links first, then nodes). Construct with NewHazard; drive
// with Evaluate once per cycle (it no-ops off the evaluation grid).
type Hazard struct {
	spec  HazardSpec //cr:nosnap configuration, fixed at construction
	links []LinkID   //cr:nosnap entity order, supplied by the constructor and revalidated on restore
	nodes []int      //cr:nosnap entity order, supplied by the constructor and revalidated on restore

	// downUntil[i] != 0 schedules entity i's repair cycle; entities are
	// the links, then the nodes.
	downUntil []int64
	// prevFlits remembers each link's cumulative traversal counter at
	// the previous evaluation, so link load is the window delta.
	prevFlits []int64

	lastEval int64
	failures int64
	repairs  int64
	evBuf    []Event //cr:nosnap per-evaluation scratch handed out by Evaluate
}

// NewHazard builds the process over the given entities. The link and
// node orders define the entity indexing and must match the load
// vectors later passed to Evaluate.
func NewHazard(spec HazardSpec, links []LinkID, nodes []int) *Hazard {
	return &Hazard{
		spec:      spec,
		links:     append([]LinkID(nil), links...),
		nodes:     append([]int(nil), nodes...),
		downUntil: make([]int64, len(links)+len(nodes)),
		prevFlits: make([]int64, len(links)),
	}
}

// Due reports whether cycle now is on the evaluation grid; callers use
// it to skip the O(links+nodes) signal collection on off-grid cycles.
func (h *Hazard) Due(now int64) bool {
	return now > 0 && now%h.spec.evalEvery() == 0
}

// Failures returns how many hazard failure events have been emitted.
func (h *Hazard) Failures() int64 { return h.failures }

// Repairs returns how many hazard repair events have been emitted.
func (h *Hazard) Repairs() int64 { return h.repairs }

// Down returns how many entities the hazard currently holds down.
func (h *Hazard) Down() int {
	n := 0
	for _, du := range h.downUntil {
		if du != 0 {
			n++
		}
	}
	return n
}

// Evaluate advances the process to cycle now and returns the fault
// events due this cycle (failures and repairs, links before nodes, each
// entity class in its fixed order — deterministic). linkFlits[i] is the
// cumulative traversal counter of links[i]; nodeLoad[j] is nodes[j]'s
// buffer-occupancy fraction in [0,1]. Off the evaluation grid it
// returns nil without consuming any randomness. The returned slice is
// reused by the next call.
func (h *Hazard) Evaluate(now int64, linkFlits []int64, nodeLoad []float64) []Event {
	if !h.Due(now) {
		return nil
	}
	dt := float64(now - h.lastEval)
	h.lastEval = now
	h.evBuf = h.evBuf[:0]
	for i := range h.links {
		if h.repairDue(i, now) {
			h.evBuf = append(h.evBuf, Event{Cycle: now, Kind: LinkEvent, Link: h.links[i], Up: true})
			h.prevFlits[i] = linkFlits[i] // discard the down-era window
			continue
		}
		if h.downUntil[i] != 0 {
			continue
		}
		load := float64(linkFlits[i]-h.prevFlits[i]) / dt
		h.prevFlits[i] = linkFlits[i]
		if h.draw(i, now, h.spec.LinkLambda0, load, dt) {
			h.fail(i, now, h.spec.LinkMTTR)
			h.evBuf = append(h.evBuf, Event{Cycle: now, Kind: LinkEvent, Link: h.links[i]})
		}
	}
	base := len(h.links)
	for j := range h.nodes {
		i := base + j
		if h.repairDue(i, now) {
			h.evBuf = append(h.evBuf, Event{Cycle: now, Kind: NodeEvent, Node: h.nodes[j], Up: true})
			continue
		}
		if h.downUntil[i] != 0 {
			continue
		}
		if h.draw(i, now, h.spec.NodeLambda0, nodeLoad[j], dt) {
			h.fail(i, now, h.spec.NodeMTTR)
			h.evBuf = append(h.evBuf, Event{Cycle: now, Kind: NodeEvent, Node: h.nodes[j]})
		}
	}
	return h.evBuf
}

// repairDue fires entity i's pending repair if its sojourn has elapsed.
func (h *Hazard) repairDue(i int, now int64) bool {
	if h.downUntil[i] == 0 || now < h.downUntil[i] {
		return false
	}
	h.downUntil[i] = 0
	h.repairs++
	return true
}

// draw makes entity i's one thinning draw for the window ending at now:
// fail with probability 1-exp(-lambda*dt), lambda =
// lambda0*exp(alpha*load). A disabled entity class (lambda0 <= 0) draws
// nothing.
func (h *Hazard) draw(i int, now int64, lambda0, load, dt float64) bool {
	if lambda0 <= 0 {
		return false
	}
	if load < 0 {
		load = 0
	} else if load > 1 {
		load = 1
	}
	lambda := lambda0 * math.Exp(h.spec.Alpha*load)
	p := -math.Expm1(-lambda * dt)
	return rng.Float64(rng.At(h.spec.Seed, rng.HazardFail, uint64(i), uint64(now))) < p
}

// fail marks entity i down at now and schedules its repair (shifted
// geometric around the class MTTR).
func (h *Hazard) fail(i int, now int64, mttr float64) {
	h.failures++
	h.downUntil[i] = now + duration(rng.At(h.spec.Seed, rng.HazardRepair, uint64(i), uint64(now)), mttr)
}

// SaveState serializes the process position: every entity's down-timer,
// the per-link window counters, and the cumulative event counts. The
// spec and entity sets are configuration and are covered by the
// network's config fingerprint instead.
func (h *Hazard) SaveState(e *snapshot.Encoder) {
	e.Varint(h.lastEval)
	e.Varint(h.failures)
	e.Varint(h.repairs)
	e.Uvarint(uint64(len(h.downUntil)))
	for _, du := range h.downUntil {
		e.Varint(du)
	}
	for _, v := range h.prevFlits {
		e.Varint(v)
	}
}

// LoadState restores a state saved by SaveState into a process built
// over the same entity sets. A count mismatch means the snapshot was
// taken against a different configuration and is refused before any
// mutation.
func (h *Hazard) LoadState(d *snapshot.Decoder) error {
	lastEval := d.Varint()
	failures := d.Varint()
	repairs := d.Varint()
	n := d.Count(len(h.downUntil))
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(h.downUntil) {
		return fmt.Errorf("faults: hazard snapshot has %d entities, process has %d", n, len(h.downUntil))
	}
	for i := range h.downUntil {
		h.downUntil[i] = d.Varint()
	}
	for i := range h.prevFlits {
		h.prevFlits[i] = d.Varint()
	}
	if err := d.Err(); err != nil {
		return err
	}
	h.lastEval, h.failures, h.repairs = lastEval, failures, repairs
	return nil
}
