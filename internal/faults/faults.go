// Package faults models the failure processes the FCR evaluation
// injects: transient data corruption on channel traversals and a
// fail/repair timeline of permanent-until-repaired link and node
// failures.
//
// Transient faults flip payload (or checksum) bits of flits crossing a
// link, exactly the data-path errors the paper's per-flit checksums
// detect. Corrupt applies them at a per-traversal rate: a fixed one for
// the i.i.d. Bernoulli process, or the current state's rate of the
// link's own Gilbert-Elliott two-state bursty chain (BurstSpec, see
// gilbert.go). Every draw is keyed by (seed, link, cycle), so the
// process keeps no generator state; the only state is each link's
// good/bad bit, which the network holds. Control metadata (kind, tail
// mark, tear-down signals) is modeled as reliable — the paper protects
// control lines with separate coding, so corrupting them would only
// change constants, not behavior.
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
)

// Corrupt is the transient corruption process, applied to the flit
// crossing link as it arrives at cycle now: with probability rate it
// flips one uniformly chosen bit of the payload or, one time in nine, of
// the checksum byte — so both data and check-bit errors are exercised —
// and reports whether it did. The verdict and the bit are keyed draws
// (rng.CorruptHit, rng.CorruptBit) on (seed, link, now), so they depend
// on the key alone: not on how many flits crossed other links first,
// nor on the order links are visited in. A link carries at most one flit
// a cycle, so the key names one traversal.
func Corrupt(f *flit.Flit, rate float64, seed, link uint64, now int64) bool {
	if rate <= 0 || !rng.Bernoulli(rng.At(seed, rng.CorruptHit, link, uint64(now)), rate) {
		return false
	}
	bit := rng.Intn(rng.At(seed, rng.CorruptBit, link, uint64(now)), 72)
	if bit < 64 {
		f.Payload ^= 1 << uint(bit)
	} else {
		f.Check ^= 1 << uint(bit-64)
	}
	return true
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

// Cursor returns the schedule's position, for checkpointing: how many
// events have fired. A nil schedule reports 0.
func (s *Schedule) Cursor() int {
	if s == nil {
		return 0
	}
	return s.next
}

// SetCursor restores a position previously returned by Cursor. It
// returns an error (and leaves the schedule unchanged) if the position
// is out of range or the schedule is nil while the position is not 0 —
// either means the checkpoint was taken against a different timeline.
func (s *Schedule) SetCursor(next int) error {
	if s == nil {
		if next != 0 {
			return fmt.Errorf("faults: restoring cursor %d into a nil schedule", next)
		}
		return nil
	}
	if next < 0 || next > len(s.events) {
		return fmt.Errorf("faults: cursor %d outside schedule of %d events", next, len(s.events))
	}
	s.next = next
	return nil
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
