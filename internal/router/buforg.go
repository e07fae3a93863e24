package router

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
)

// Buffer organizations. The router has one input-buffer store: every
// input VC (network and injection, in every organization) owns a
// private ring in one flat arena, and a granted-window ledger on top
// decides how much of its ring a network VC may fill. Config.Org only
// picks the ledger's geometry, fixed at construction:
//
//   - OrgStaticFIFO: no VC is pooled. Every ring is a fixed BufDepth
//     window — the original kernel, and the default.
//   - OrgDAMQ: the VCs of each network input port form one pool with a
//     budget of VCs*BufDepth flits (dynamically-allocated multi-queue).
//     Every VC always keeps a window of vcReserve (1) so one hot VC
//     cannot starve its siblings; the rest is granted on demand, up to
//     vcReserve+BufDepth per VC.
//   - OrgCreditShared: all network input VCs of the router form one
//     pool of deg*VCs*BufDepth flits, with the same reserve discipline.
//
// Injection channels are unpooled BufDepth windows in every org: the
// local injector reads their occupancy directly (InjectionFree), so
// they take no part in credit advertisement.
//
// A pool is therefore a budget, not a place: each ring is as long as
// the largest window its VC can ever be granted (maxWindow), so a flit
// admitted under the ledger always has a slot in its own ring, and which
// physical slot that is was never observable — push and pop address
// slots relative to the front, and the snapshot codec writes FIFOs in
// logical order. What sharing changes is visible only through the
// ledger (granted, grantSum, grantRR) and the deltas it advertises.
// The per-pool occupancy counter (used) is the one piece of placement
// bookkeeping kept: it is what catches an upstream that overruns the
// pool's budget while every VC is still inside its own cap.
//
// Credit protocol under sharing: the upstream output VC tracks a
// dynamic window alongside its credit count, and a VC is claimable when
// credit == window (the generalized "fully drained" condition; for the
// static org window is constant BufDepth, reducing to the original
// rule). Windows start at the reserve; when a head flit is accepted the
// downstream pool grants the VC extra window up to its cap, advertised
// upstream as a credit+window delta; when the worm releases the VC the
// excess shrinks back to the reserve and is re-granted round-robin to
// active sibling VCs. All advertisement deltas are additive, so they
// commute with ordinary refunds inside a cycle and ride the sharded
// kernel's credit mailbox matrix unchanged (see network/shard.go).

// BufferOrg selects the router's input-buffer organization.
type BufferOrg uint8

const (
	// OrgStaticFIFO gives every input VC a fixed BufDepth window (the
	// default; byte-identical to the original kernel).
	OrgStaticFIFO BufferOrg = iota
	// OrgDAMQ shares a per-port flit budget across the port's VCs.
	OrgDAMQ
	// OrgCreditShared shares one router-wide flit budget across all
	// network input ports.
	OrgCreditShared
)

// String implements fmt.Stringer.
func (o BufferOrg) String() string {
	switch o {
	case OrgStaticFIFO:
		return "fifo"
	case OrgDAMQ:
		return "damq"
	case OrgCreditShared:
		return "shared"
	default:
		return fmt.Sprintf("BufferOrg(%d)", uint8(o))
	}
}

// ParseBufferOrg parses the names produced by String (sweep-axis and
// CLI flag values).
func ParseBufferOrg(s string) (BufferOrg, error) {
	switch s {
	case "fifo", "static", "":
		return OrgStaticFIFO, nil
	case "damq":
		return OrgDAMQ, nil
	case "shared", "credit-shared":
		return OrgCreditShared, nil
	default:
		return 0, fmt.Errorf("router: unknown buffer org %q (want fifo, damq or shared)", s)
	}
}

// BufferOrgs lists every organization, for sweep drivers.
var BufferOrgs = []BufferOrg{OrgStaticFIFO, OrgDAMQ, OrgCreditShared}

// vcReserve is the window every pooled VC always keeps: the smallest
// guarantee that lets a head flit land, so a hot sibling cannot starve
// it. The sharing cap above the reserve is BufDepth (see maxWindow).
const vcReserve = 1

// InitWindow is the window a network output VC starts with (and returns
// to whenever its worm releases it): the full depth for static FIFO,
// the reserve for the shared orgs.
func (c Config) InitWindow() int {
	if c.Org == OrgStaticFIFO {
		return c.BufDepth
	}
	return vcReserve
}

// groupVCs returns how many VCs share one pool under org geometry.
func (c Config) groupVCs(deg int) int {
	if c.Org == OrgCreditShared {
		return deg * c.VCs
	}
	return c.VCs
}

// poolSlots returns the flit budget of one pool: the same silicon
// budget as the static arena over the pool's VC group.
func (c Config) poolSlots(deg int) int {
	return c.groupVCs(deg) * c.BufDepth
}

// maxWindow is the largest window one VC may be granted: the reserve
// plus BufDepth, clamped so every sibling always keeps its reserve. It
// is also the length of every VC's ring.
func (c Config) maxWindow(deg int) int {
	if c.Org == OrgStaticFIFO {
		return c.BufDepth
	}
	bound := c.poolSlots(deg) - (c.groupVCs(deg)-1)*vcReserve
	if w := vcReserve + c.BufDepth; w < bound {
		return w
	}
	return bound
}

// AbsorbDepth returns the worst-case per-hop, per-VC flit absorption of
// the organization — the quantity CR/FCR padding must be computed from
// for the protocol's commit bound to hold (core.IminCR assumes no hop
// can swallow more than this many flits of one worm). For static FIFO
// it is BufDepth; for the shared orgs it is the window cap.
func (c Config) AbsorbDepth(deg int) int { return c.maxWindow(deg) }

// store holds every input VC's FIFO (addressed by flat index, injection
// channels last) and the window ledger of the pooled ones. VC i's ring
// is arena[i*stride : (i+1)*stride]. Occupancy counts are maintained by
// the router (inVC.count) and passed in where the store needs them.
// Pool p covers pooled VCs [p*vcsPer, (p+1)*vcsPer); VCs at or past
// nPooled (everything under static FIFO, the injection channels always)
// are plain BufDepth windows the ledger never touches.
type store struct {
	// The fields push, pop and front read come first: the router keeps
	// them in its hot header (see Router).
	arena   []flit.Flit
	head    []int32 // per VC: ring offset of the front flit
	stride  int     // ring length, and window cap of a pooled VC: maxWindow
	depth   int     // admission cap of an unpooled VC: BufDepth
	nPooled int
	vcsPer  int
	poolCap int32   // per pool: flit budget
	used    []int32 //cr:nosnap per pool: buffered flits, recomputed by loadVC from the restored counts

	granted  []int32 // per pooled VC: advertised window (the upstream mirror)
	grantSum []int32 // per pool: sum of granted (the advertisement budget)
	grantRR  []int32 // per pool: round-robin start for release top-ups
}

// newStore builds the store for a router with the given degree and flat
// input-VC count (nIn = deg*VCs + injection). The ledger covers every
// network input VC under the shared orgs and none under static FIFO.
func newStore(cfg Config, deg, nIn int) store {
	s := store{
		stride:  cfg.maxWindow(deg),
		depth:   cfg.BufDepth,
		vcsPer:  cfg.groupVCs(deg),
		poolCap: int32(cfg.poolSlots(deg)),
	}
	if cfg.Org != OrgStaticFIFO {
		s.nPooled = deg * cfg.VCs
	}
	pools := s.nPooled / s.vcsPer
	s.arena = make([]flit.Flit, nIn*s.stride)
	s.head = make([]int32, nIn)
	s.granted = make([]int32, s.nPooled)
	s.grantSum = make([]int32, pools)
	s.grantRR = make([]int32, pools)
	s.used = make([]int32, pools)
	s.reset()
	return s
}

// reset returns the store to its as-constructed state.
func (s *store) reset() {
	for i := range s.head {
		s.head[i] = 0
	}
	for i := range s.granted {
		s.granted[i] = vcReserve
	}
	for p := range s.grantSum {
		s.grantSum[p] = int32(s.vcsPer) * vcReserve
		s.grantRR[p] = 0
		s.used[p] = 0
	}
}

// push copies *f onto the back of VC i's FIFO; n is the occupancy
// before the push (the admission bound capOf was already checked by the
// caller).
func (s *store) push(i, n int, f *flit.Flit) {
	if i < s.nPooled {
		p := i / s.vcsPer
		if s.used[p] == s.poolCap {
			panic("router: buffer pool exhausted (credit protocol violated)")
		}
		s.used[p]++
	}
	*s.at(i, n) = *f
}

// pop removes VC i's front flit and returns a pointer to the slot it
// vacated. The slot is not overwritten until VC i's next push, so the
// pointer stays valid until then; Transmit hands it to its move callback
// before anything can push here. This is what keeps a hop at two flit
// copies: ring slot into the link's in-flight entry, and in-flight entry
// into the next router's ring (see flit.Flit).
func (s *store) pop(i int) *flit.Flit {
	if i < s.nPooled {
		s.used[i/s.vcsPer]--
	}
	f := s.front(i)
	if s.head[i]++; int(s.head[i]) == s.stride {
		s.head[i] = 0
	}
	return f
}

// front returns a pointer to VC i's front flit.
func (s *store) front(i int) *flit.Flit { return &s.arena[i*s.stride+int(s.head[i])] }

// at returns a pointer to VC i's k-th flit from the front, k below the
// ring length.
func (s *store) at(i, k int) *flit.Flit {
	j := int(s.head[i]) + k
	if j >= s.stride {
		j -= s.stride
	}
	return &s.arena[i*s.stride+j]
}

// purge drops all n buffered flits of VC i. It never moves the ledger
// (see Router.purge).
func (s *store) purge(i, n int) {
	if i < s.nPooled {
		s.used[i/s.vcsPer] -= int32(n)
	}
	s.head[i] = 0
}

// capOf is VC i's maximum occupancy (its admission bound).
func (s *store) capOf(i int) int {
	if i < s.nPooled {
		return s.stride
	}
	return s.depth
}

// grantOnHead records a head flit accepted on VC i and returns the
// window growth to advertise upstream (0 for an unpooled VC).
func (s *store) grantOnHead(i int) int {
	if i >= s.nPooled {
		return 0
	}
	pool := i / s.vcsPer
	g := int32(s.stride) - s.granted[i]
	if avail := s.poolCap - s.grantSum[pool]; g > avail {
		g = avail
	}
	if g <= 0 {
		return 0
	}
	s.granted[i] += g
	s.grantSum[pool] += g
	return int(g)
}

// release records VC i's worm releasing the channel normally (tail
// transmitted): the window shrinks back to the reserve and the freed
// budget is re-granted round-robin to siblings in ins that currently
// host a worm. Every window delta is published through advert (nil
// drops them). Kill teardowns must NOT call release (see Router.purge):
// the tenure freezes until the channel's next worm completes.
func (s *store) release(i int, ins []inVC, advert CreditAdvert) {
	if i >= s.nPooled {
		return
	}
	pool := i / s.vcsPer
	shrink := s.granted[i] - vcReserve
	if shrink <= 0 {
		return
	}
	s.granted[i] = vcReserve
	s.grantSum[pool] -= shrink
	if advert != nil {
		advert(int(ins[i].p), int(ins[i].vc), int(-shrink))
	}
	// Re-grant the freed budget round-robin to active siblings below
	// their cap, so a waiting worm picks up the shared budget the moment
	// it exists (DAMQ's "use the space somebody else isn't").
	avail := s.poolCap - s.grantSum[pool]
	base := pool * s.vcsPer
	nv := int32(s.vcsPer)
	start := s.grantRR[pool]
	for k := int32(0); k < nv && avail > 0; k++ {
		j := base + int((start+k)%nv)
		if j == i || !ins[j].active {
			continue
		}
		g := int32(s.stride) - s.granted[j]
		if g > avail {
			g = avail
		}
		if g <= 0 {
			continue
		}
		s.granted[j] += g
		s.grantSum[pool] += g
		avail -= g
		if advert != nil {
			advert(int(ins[j].p), int(ins[j].vc), int(g))
		}
		s.grantRR[pool] = (start + k + 1) % nv
	}
}

// resetGrant silently returns VC i's granted window to the reserve with
// no upstream advertisement — for link repair, where the network resets
// the upstream window out of band (SetLinkUp).
func (s *store) resetGrant(i int) {
	if i >= s.nPooled {
		return
	}
	s.grantSum[i/s.vcsPer] -= s.granted[i] - vcReserve
	s.granted[i] = vcReserve
}

// saveVC encodes VC i's n buffered flits front-to-back.
func (s *store) saveVC(e *snapshot.Encoder, i, n int) {
	for k := 0; k < n; k++ {
		flit.PutFlit(e, s.at(i, k))
	}
}

// loadVC restores VC i's n flits into a freshly reset store, at ring
// phase zero (the phase is not serialized). The caller has bounded n by
// capOf; whether the pool's budget covers the total is for check.
func (s *store) loadVC(d *snapshot.Decoder, i, n int) {
	if i < s.nPooled {
		s.used[i/s.vcsPer] += int32(n)
	}
	base := i * s.stride
	for k := 0; k < n; k++ {
		s.arena[base+k] = flit.GetFlit(d)
	}
}

// saveLedger/loadLedger encode the granted windows and grant rotation;
// empty when nothing is pooled. check audits what loadLedger restores,
// with the rest of the router (CheckInvariants).
func (s *store) saveLedger(e *snapshot.Encoder) {
	for _, g := range s.granted {
		e.Int(int(g))
	}
	for _, rr := range s.grantRR {
		e.Int(int(rr))
	}
}

func (s *store) loadLedger(d *snapshot.Decoder) {
	clear(s.grantSum)
	for i := range s.granted {
		s.granted[i] = int32(d.Int())
		s.grantSum[i/s.vcsPer] += s.granted[i]
	}
	for p := range s.grantRR {
		s.grantRR[p] = int32(d.Int())
	}
}

// check audits the ledger against the occupancies in ins: every granted
// window within [reserve, cap] and covering its VC's occupancy, the
// per-pool sums matching their counters and within the budget, the
// rotation cursor in range, and flit conservation (the pool's VCs hold
// exactly what its occupancy counter says).
func (s *store) check(ins []inVC) error {
	for p := range s.grantSum {
		occ, gsum := int32(0), int32(0)
		for i := p * s.vcsPer; i < (p+1)*s.vcsPer; i++ {
			n, g := ins[i].count, s.granted[i]
			if g < vcReserve || int(g) > s.stride {
				return fmt.Errorf("pool %d VC %d granted %d outside [%d,%d]", p, i, g, vcReserve, s.stride)
			}
			if n > g {
				return fmt.Errorf("pool %d VC %d occupancy %d exceeds granted %d", p, i, n, g)
			}
			occ += n
			gsum += g
		}
		if occ != s.used[p] {
			return fmt.Errorf("pool %d flit conservation: VCs hold %d, counter %d", p, occ, s.used[p])
		}
		if gsum != s.grantSum[p] {
			return fmt.Errorf("pool %d granted sum %d, counter %d", p, gsum, s.grantSum[p])
		}
		if gsum > s.poolCap {
			return fmt.Errorf("pool %d granted sum %d exceeds capacity %d", p, gsum, s.poolCap)
		}
		if rr := s.grantRR[p]; rr < 0 || rr >= int32(s.vcsPer) {
			return fmt.Errorf("pool %d grant rotation %d outside [0,%d)", p, rr, s.vcsPer)
		}
	}
	return nil
}
