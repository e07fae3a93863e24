// Package faults models the failure processes the FCR evaluation
// injects: transient data corruption on channel traversals and a
// fail/repair timeline of permanent-until-repaired link and node
// failures.
//
// Transient faults flip payload (or checksum) bits of flits crossing a
// link, exactly the data-path errors the paper's per-flit checksums
// detect. Two corruption processes are provided: the i.i.d. Bernoulli
// process (Transient) and a Gilbert-Elliott two-state bursty process
// (GilbertElliott, see gilbert.go); both satisfy Corrupter. Control
// metadata (kind, tail mark, tear-down signals) is modeled as reliable —
// the paper protects control lines with separate coding, so corrupting
// them would only change constants, not behavior.
//
// Permanent faults are scheduled Events: a link (or a whole node, taking
// down every incident link) goes down at a cycle and may come back up at
// a later one. The network reacts to a failure by tearing down worms
// that hold the dead resources so the CR retry protocol routes
// replacement attempts around them; a repair restores the link with
// empty buffers and full credits. RandomTimeline (see timeline.go)
// generates MTBF/MTTR-driven random fail/repair schedules for chaos
// testing.
package faults

import (
	"fmt"
	"sort"

	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/snapshot"
)

// Corrupter is a transient data-corruption process applied to every flit
// crossing a link. Implementations are deterministic given their seed
// and checkpointable: SaveState/LoadState capture the process position
// (RNG stream, channel state, injected count) so a restored network
// replays the exact corruption stream an unbroken run would see.
type Corrupter interface {
	// Apply possibly corrupts f in place and reports whether it did.
	Apply(f *flit.Flit) bool
	// Injected returns how many corruptions have been applied.
	Injected() int64
	// SaveState appends the process state to a snapshot.
	SaveState(e *snapshot.Encoder)
	// LoadState restores a state written by SaveState of the same
	// process kind.
	LoadState(d *snapshot.Decoder) error
}

// corruptFlit flips one uniformly chosen bit of the payload or, one time
// in nine, of the checksum byte — so both data and check-bit errors are
// exercised. Shared by every corruption process.
func corruptFlit(r *rng.Source, f *flit.Flit) {
	bit := r.Intn(72)
	if bit < 64 {
		f.Payload ^= 1 << uint(bit)
	} else {
		f.Check ^= 1 << uint(bit-64)
	}
}

// Transient is a Bernoulli per-flit-traversal corruption process. The
// zero value injects nothing.
type Transient struct {
	// Rate is the probability that a flit is corrupted on one link
	// traversal.
	Rate float64 //cr:nosnap configuration, set by the owner at construction
	rng  *rng.Source

	injected int64
}

// NewTransient returns a transient fault process with its own RNG stream.
func NewTransient(rate float64, seed uint64) *Transient {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("faults: transient rate %v outside [0,1]", rate))
	}
	return &Transient{Rate: rate, rng: rng.New(seed)}
}

// Apply possibly corrupts f in place and reports whether it did.
func (t *Transient) Apply(f *flit.Flit) bool {
	if t == nil || t.Rate <= 0 {
		return false
	}
	if !t.rng.Bernoulli(t.Rate) {
		return false
	}
	t.injected++
	corruptFlit(t.rng, f)
	return true
}

// Injected returns how many corruptions have been applied.
func (t *Transient) Injected() int64 {
	if t == nil {
		return 0
	}
	return t.injected
}

// LinkID names a unidirectional link by its source endpoint: node and
// output port.
type LinkID struct {
	Node int
	Port int
}

// EventKind distinguishes link-level from node-level fault events.
type EventKind uint8

const (
	// LinkEvent targets a single unidirectional link (Event.Link).
	LinkEvent EventKind = iota
	// NodeEvent targets a whole router (Event.Node): every incident
	// link, both directions, fails or is repaired together.
	NodeEvent
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k == NodeEvent {
		return "node"
	}
	return "link"
}

// Event is one scheduled fault-timeline event: a link or node failure
// (Up=false) or repair (Up=true). The zero value of Kind/Up makes the
// historical literal Event{Cycle, Link} a link failure.
//
// Failures are reference counted by the network: a link taken down both
// by its own LinkEvent and by an incident NodeEvent needs both repairs
// before it comes back up, and duplicate failures of one link need as
// many repairs. Repairing an up link is a no-op.
type Event struct {
	Cycle int64
	Kind  EventKind
	Link  LinkID // LinkEvent target
	Node  int    // NodeEvent target
	Up    bool   // false = fail, true = repair
}

// String implements fmt.Stringer.
func (e Event) String() string {
	dir := "down"
	if e.Up {
		dir = "up"
	}
	if e.Kind == NodeEvent {
		return fmt.Sprintf("{cycle %d: node %d %s}", e.Cycle, e.Node, dir)
	}
	return fmt.Sprintf("{cycle %d: link (%d,%d) %s}", e.Cycle, e.Link.Node, e.Link.Port, dir)
}

// Schedule is an ordered fail/repair timeline. Construct with
// NewSchedule; Pop events as simulation time advances. Events at the
// same cycle apply in their pre-sort order (NewSchedule sorts stably),
// so a same-cycle fail+repair pair nets to the state of the later entry.
type Schedule struct {
	events []Event
	next   int
}

// NewSchedule returns a schedule of the given events, sorted stably by
// cycle (same-cycle events keep their given order).
func NewSchedule(events []Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Cycle < s.events[j].Cycle })
	return s
}

// Pop returns all events due at or before now, advancing the cursor.
func (s *Schedule) Pop(now int64) []Event {
	if s == nil {
		return nil
	}
	start := s.next
	for s.next < len(s.events) && s.events[s.next].Cycle <= now {
		s.next++
	}
	return s.events[start:s.next]
}

// Remaining returns how many events have not fired yet.
func (s *Schedule) Remaining() int {
	if s == nil {
		return 0
	}
	return len(s.events) - s.next
}

// Events returns the full timeline in firing order, for inspection.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.events...)
}

// RandomLinks builds a failure schedule killing n distinct links chosen
// uniformly from the given candidates, all at the given cycle. It is the
// workload for the permanent-fault experiment (E9).
func RandomLinks(candidates []LinkID, n int, cycle int64, seed uint64) *Schedule {
	if n > len(candidates) {
		panic(fmt.Sprintf("faults: want %d dead links, only %d candidates", n, len(candidates)))
	}
	r := rng.New(seed)
	perm := make([]int, len(candidates))
	r.Perm(perm)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, Event{Cycle: cycle, Link: candidates[perm[i]]})
	}
	return NewSchedule(events)
}
