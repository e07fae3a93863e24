package network

import (
	"slices"

	"crnet/internal/flit"
)

// nodeSet is a deduplicated worklist of node ids with deterministic
// (ascending) iteration order. Membership is tracked in a dense bitmap so
// add is O(1); prepare sorts the id list in place before a phase iterates
// it, so incidental insertion order (which depends on link directions and
// event arrival order) can never leak into phase order and thus into
// simulation results. Between cycles the list stays sorted (pruning
// preserves order), so prepare sorts only the ids appended since the
// last prepare and merges them backwards into the sorted prefix: O(adds
// log adds + active) per cycle, with no allocation once scratch has
// grown to the largest batch of adds.
type nodeSet struct {
	member []bool
	ids    []int32
	// sorted is the length of the ascending prefix ids[:sorted]; the ids
	// after it were added since the last prepare. A caller's pruning may
	// shrink ids below it, which add and prepare clamp.
	sorted  int
	scratch []int32 // prepare's copy of the added tail
}

func newNodeSet(n int) nodeSet {
	return nodeSet{member: make([]bool, n)}
}

// add inserts id if absent.
func (s *nodeSet) add(id int32) {
	if !s.member[id] {
		s.member[id] = true
		s.sorted = min(s.sorted, len(s.ids))
		s.ids = append(s.ids, id)
	}
}

// prepare sorts the pending ids ascending; call once before iterating.
// Pruning (compaction during iteration) preserves sortedness, so only
// cycles that added members do any work.
func (s *nodeSet) prepare() {
	ids := s.ids
	lo := min(s.sorted, len(ids))
	s.sorted = len(ids)
	if lo == len(ids) {
		return
	}
	tail := append(s.scratch[:0], ids[lo:]...)
	s.scratch = tail
	slices.Sort(tail)
	// Merge from the back: ids[k] is the larger of the prefix's and the
	// tail's last unplaced ids, so no prefix id is overwritten before it
	// has moved.
	i, j := lo-1, len(tail)-1
	for k := len(ids) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > tail[j] {
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = tail[j]
			j--
		}
	}
}

// drop removes id from the bitmap only; the caller compacts ids itself
// while iterating (see shardTransmit).
func (s *nodeSet) drop(id int32) { s.member[id] = false }

// reset empties the set.
func (s *nodeSet) reset() {
	for _, id := range s.ids {
		s.member[id] = false
	}
	s.ids = s.ids[:0]
	s.sorted = 0
}

// linkRef identifies one directed link by its upstream (node, port).
type linkRef struct {
	node int32
	port int32
}

// inFlight is one busy-link worklist entry: the flit crossing link ref
// this cycle and the downstream VC it is bound for. The flit lives here,
// not in the link, because a channel holds at most one flit and only
// the links launched this cycle hold one — the state follows traffic,
// not network size.
type inFlight struct {
	ref linkRef
	vc  uint8
	f   flit.Flit
}
