package network

import (
	"math/bits"

	"crnet/internal/flit"
)

// nodeSet is a worklist over one range's node ids [lo, hi), a two-level
// bitmap: bit i of words marks id lo+i a member, bit w of sum marks
// words[w] non-empty. A walk visits members in ascending id, so phase
// order is full-scan order whatever the order of adds, with no sort:
//
//	for w := s.word(0); w >= 0; w = s.word(w + 1) {
//		for m := s.words[w]; m != 0; m &= m - 1 {
//			id := s.id(w, m) // may be dropped here
//
// Through the summary and the count n, a walk costs O(members +
// (hi-lo)/4096), and an empty set's nothing.
type nodeSet struct {
	lo    int32
	n     int
	words []uint64
	sum   []uint64
}

func newNodeSet(lo, hi int) nodeSet {
	w := (hi - lo + 63) / 64
	return nodeSet{lo: int32(lo), words: make([]uint64, w), sum: make([]uint64, (w+63)/64)}
}

// add inserts id if absent.
func (s *nodeSet) add(id int32) {
	i := uint(id - s.lo)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b != 0 {
		return
	}
	if s.words[w] == 0 {
		s.sum[w>>6] |= 1 << (w & 63)
	}
	s.words[w] |= b
	s.n++
}

// drop removes id if present.
func (s *nodeSet) drop(id int32) {
	i := uint(id - s.lo)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b == 0 {
		return
	}
	if s.words[w] &^= b; s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (w & 63)
	}
	s.n--
}

// word returns the first non-empty word at or after w, or -1.
func (s *nodeSet) word(w int) int {
	j := w >> 6
	if s.n == 0 || j >= len(s.sum) {
		return -1
	}
	m := s.sum[j] &^ (1<<(w&63) - 1)
	for m == 0 {
		if j++; j == len(s.sum) {
			return -1
		}
		m = s.sum[j]
	}
	return j<<6 | bits.TrailingZeros64(m)
}

// id returns the member of word w that m's lowest set bit marks.
func (s *nodeSet) id(w int, m uint64) int32 { return s.lo + int32(w<<6|bits.TrailingZeros64(m)) }

// reset empties the set, clearing only the non-empty words.
func (s *nodeSet) reset() {
	if s.n == 0 {
		return
	}
	for j, m := range s.sum {
		for ; m != 0; m &= m - 1 {
			s.words[j<<6|bits.TrailingZeros64(m)] = 0
		}
		s.sum[j] = 0
	}
	s.n = 0
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
