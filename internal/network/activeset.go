package network

import "crnet/internal/flit"

// nodeSet is a deduplicated worklist of node ids with deterministic
// (ascending) iteration order. Membership is tracked in a dense bitmap so
// add is O(1); prepare sorts the id list in place before a phase iterates
// it, so incidental insertion order (which depends on link directions and
// event arrival order) can never leak into phase order and thus into
// simulation results. The sort is a plain insertion sort: between cycles
// the list stays sorted (pruning preserves order), so only the ids added
// since the last prepare migrate, and no allocation or closure is
// involved.
type nodeSet struct {
	member []bool
	ids    []int32
	dirty  bool // ids has appends since the last prepare
}

func newNodeSet(n int) nodeSet {
	return nodeSet{member: make([]bool, n)}
}

// add inserts id if absent.
func (s *nodeSet) add(id int32) {
	if !s.member[id] {
		s.member[id] = true
		s.ids = append(s.ids, id)
		s.dirty = true
	}
}

// prepare sorts the pending ids ascending; call once before iterating.
// Pruning (compaction during iteration) preserves sortedness, so the
// sort only runs on cycles that added members.
func (s *nodeSet) prepare() {
	if !s.dirty {
		return
	}
	s.dirty = false
	ids := s.ids
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// drop removes id from the bitmap only; the caller compacts ids itself
// while iterating (see shardTransmit).
func (s *nodeSet) drop(id int32) { s.member[id] = false }

// reset empties the set. The dirty flag is cleared too: an empty list
// is trivially sorted, and leaving the flag set would make the next
// prepare after a LoadState run a pointless sort pass.
func (s *nodeSet) reset() {
	for _, id := range s.ids {
		s.member[id] = false
	}
	s.ids = s.ids[:0]
	s.dirty = false
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
