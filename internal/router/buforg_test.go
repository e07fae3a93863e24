package router

import (
	"bytes"
	"strings"
	"testing"

	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

func TestBufferOrgParse(t *testing.T) {
	for _, org := range BufferOrgs {
		got, err := ParseBufferOrg(org.String())
		if err != nil || got != org {
			t.Errorf("ParseBufferOrg(%q) = %v, %v", org.String(), got, err)
		}
	}
	for s, want := range map[string]BufferOrg{"": OrgStaticFIFO, "static": OrgStaticFIFO, "credit-shared": OrgCreditShared} {
		if got, err := ParseBufferOrg(s); err != nil || got != want {
			t.Errorf("ParseBufferOrg(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBufferOrg("bogus"); err == nil {
		t.Error("ParseBufferOrg accepted bogus name")
	}
}

// TestBufferOrgGeometry pins the pool geometry and window math: the
// modelled budget is the same in every organization, every ring is as
// long as the largest window its VC can be granted, and the window cap
// respects both the share bound and the siblings' reserves.
func TestBufferOrgGeometry(t *testing.T) {
	const deg = 2
	cfg := testConfig() // VCs 2, BufDepth 2, 1 inj, 1 ej
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	for _, org := range BufferOrgs {
		cfg.Org = org
		r := orgTestRouter(org)
		if got, want := r.BufferCapacity(), nIn*cfg.BufDepth; got != want {
			t.Errorf("%s: BufferCapacity %d, want %d", org, got, want)
		}
		s := &r.store
		if got, want := len(s.arena), nIn*cfg.maxWindow(deg); got != want {
			t.Errorf("%s: arena %d slots, want %d (one maxWindow ring per VC)", org, got, want)
		}
		// Injection channels are private BufDepth windows in every org.
		if got := s.capOf(nIn - 1); got != cfg.BufDepth {
			t.Errorf("%s: injection capOf %d, want %d", org, got, cfg.BufDepth)
		}
		if got, want := s.capOf(0), cfg.maxWindow(deg); got != want {
			t.Errorf("%s: network capOf %d, want maxWindow %d", org, got, want)
		}
	}
	// DAMQ, VCs=2, depth=2: pool of 4 flits over 2 VCs, reserve 1 →
	// window cap min(1+2, 4-1) = 3. Shared: pool of 8 over 4 VCs →
	// min(1+2, 8-3) = 3.
	cfg.Org = OrgDAMQ
	if w := cfg.maxWindow(deg); w != 3 {
		t.Errorf("damq maxWindow = %d, want 3", w)
	}
	cfg.Org = OrgCreditShared
	if w := cfg.maxWindow(deg); w != 3 {
		t.Errorf("shared maxWindow = %d, want 3", w)
	}
	if cfg.AbsorbDepth(deg) != cfg.maxWindow(deg) {
		t.Error("AbsorbDepth must equal maxWindow for shared orgs")
	}
	cfg.Org = OrgStaticFIFO
	if cfg.AbsorbDepth(deg) != cfg.BufDepth {
		t.Error("AbsorbDepth must equal BufDepth for static FIFO")
	}
}

// storeFixture is a bare store of the given organization over deg 2 ×
// testConfig, with the occupancy counts the router would keep.
type storeFixture struct {
	*store
	ins []inVC
	nIn int
}

func newStoreFixture(org BufferOrg) *storeFixture {
	const deg = 2
	cfg := testConfig()
	cfg.Org = org
	nIn := deg*cfg.VCs + cfg.InjectionChannels
	s := newStore(cfg, deg, nIn)
	fx := &storeFixture{store: &s, ins: make([]inVC, nIn), nIn: nIn}
	for i := range fx.ins {
		fx.ins[i].p, fx.ins[i].vc = int16(i/cfg.VCs), int16(i%cfg.VCs)
	}
	return fx
}

func (fx *storeFixture) push(i int, f flit.Flit) {
	fx.store.push(i, int(fx.ins[i].count), &f)
	fx.ins[i].count++
}

func (fx *storeFixture) pop(i int) flit.Flit {
	fx.ins[i].count--
	return *fx.store.pop(i)
}

func (fx *storeFixture) purge(i int) {
	fx.store.purge(i, int(fx.ins[i].count))
	fx.ins[i].count = 0
}

// pushFlit pushes a flit held by value onto a router input VC.
func pushFlit(r *Router, v *inVC, f flit.Flit) { r.push(v, &f) }

func (fx *storeFixture) audit(t *testing.T) {
	t.Helper()
	if err := fx.check(fx.ins); err != nil {
		t.Fatal(err)
	}
}

// TestPooledGrantLifecycle drives the granted-window ledger of one DAMQ
// pool through its whole protocol: grant on head (capped by the pool
// budget), release with shrink advertisement and round-robin sibling
// top-up, the tenure freeze across purge, and the silent link-repair
// reset.
func TestPooledGrantLifecycle(t *testing.T) {
	fx := newStoreFixture(OrgDAMQ)
	s := fx.store
	// Pool 0 hosts VCs 0 and 1: poolCap 4, reserve 1, window cap 3.
	if s.granted[0] != 1 || s.granted[1] != 1 || s.grantSum[0] != 2 {
		t.Fatalf("fresh ledger granted=%v grantSum=%v", s.granted, s.grantSum)
	}
	// Head on VC 0: grows to the cap (3), bounded by budget 4-2=2.
	if g := s.grantOnHead(0); g != 2 {
		t.Fatalf("grantOnHead(0) = %d, want 2", g)
	}
	// Head on VC 1: budget exhausted (sum 4 == poolCap), no growth.
	if g := s.grantOnHead(1); g != 0 {
		t.Fatalf("grantOnHead(1) = %d, want 0 (budget exhausted)", g)
	}
	// Purge of VC 0 must NOT shrink its grant: the tenure freezes (a
	// kill can race a same-cycle reclaim upstream — see Router.purge).
	fx.purge(0)
	if s.granted[0] != 3 || s.grantSum[0] != 4 {
		t.Fatalf("purge moved the ledger: granted=%v sum=%d", s.granted, s.grantSum)
	}
	// Normal release of VC 0: shrink back to the reserve, advertise -2,
	// and top VC 1 (active) up round-robin with the freed budget.
	var ads [][3]int
	record := func(port, vc, delta int) { ads = append(ads, [3]int{port, vc, delta}) }
	fx.ins[1].active = true
	s.release(0, fx.ins, record)
	if s.granted[0] != 1 || s.granted[1] != 3 || s.grantSum[0] != 4 {
		t.Fatalf("after release granted=%v sum=%d", s.granted, s.grantSum)
	}
	want := [][3]int{{0, 0, -2}, {0, 1, 2}}
	if len(ads) != 2 || ads[0] != want[0] || ads[1] != want[1] {
		t.Fatalf("release advertisements %v, want %v", ads, want)
	}
	// Release with no active sibling: the budget just returns.
	ads = nil
	fx.ins[1].active = false
	s.release(1, fx.ins, record)
	if len(ads) != 1 || ads[0] != [3]int{0, 1, -2} || s.grantSum[0] != 2 {
		t.Fatalf("idle release ads=%v sum=%d", ads, s.grantSum[0])
	}
	// Link repair: resetGrant returns a stranded tenure silently.
	s.grantOnHead(1)
	s.resetGrant(1)
	if s.granted[1] != 1 || s.grantSum[0] != 2 {
		t.Fatalf("resetGrant left granted=%v sum=%d", s.granted, s.grantSum)
	}
	// Pool 1 (VCs 2,3) was never touched.
	if s.grantSum[1] != 2 {
		t.Fatalf("pool 1 ledger moved: sum=%d", s.grantSum[1])
	}
	fx.audit(t)
}

// TestPooledFIFOOrder interleaves pushes, pops and purges across VCs
// sharing one pool and verifies per-VC FIFO order, flit conservation
// and injection-window independence; then moves more than a ring's
// length through one pooled VC, with a purge in between, so the ring
// wraps and its phase is non-zero.
func TestPooledFIFOOrder(t *testing.T) {
	fx := newStoreFixture(OrgCreditShared)
	s := fx.store
	fr := frame(7, 0, 2, 6, 0, 0)
	// Grow the windows first, as the router does on head accept — the
	// audit enforces occupancy within the granted window.
	s.grantOnHead(0)
	s.grantOnHead(1)
	// Interleave two VCs of the shared pool.
	fx.push(0, fr.FlitAt(0))
	fx.push(1, fr.FlitAt(3))
	fx.push(0, fr.FlitAt(1))
	fx.push(1, fr.FlitAt(4))
	fx.push(0, fr.FlitAt(2))
	inj := fx.nIn - 1
	fx.push(inj, fr.FlitAt(5))
	fx.audit(t)
	if f := s.front(0); f.Seq != fr.FlitAt(0).Seq {
		t.Fatalf("front(0) seq %d", f.Seq)
	}
	for k := 0; k < 3; k++ {
		if f := fx.pop(0); f.Seq != fr.FlitAt(k).Seq {
			t.Fatalf("VC0 pop %d returned seq %d", k, f.Seq)
		}
	}
	fx.purge(1)
	if f := fx.pop(inj); !f.Tail {
		t.Fatal("injection pop lost the tail flit")
	}
	fx.audit(t)
	if s.used[0] != 0 {
		t.Fatalf("pool counter not back to zero after drain: %d", s.used[0])
	}

	// Wrap: 2*stride+1 flits through VC 0, never more than two buffered,
	// purged once part-way (which rewinds the ring to offset zero).
	long := frame(8, 0, 2, 2*s.stride+1, 0, 0)
	next := 0
	for k := 0; k < 2*s.stride+1; k++ {
		fx.push(0, long.FlitAt(k))
		if fx.ins[0].count == 2 {
			if f := fx.pop(0); f.Seq != long.FlitAt(next).Seq {
				t.Fatalf("wrap: pop returned seq %d, want %d", f.Seq, long.FlitAt(next).Seq)
			}
			next++
		}
		if k == s.stride {
			fx.purge(0)
			next = k + 1
		}
		fx.audit(t)
	}
	if s.head[0] == 0 {
		t.Fatal("wrap case left the ring at offset zero; it no longer exercises ring phase")
	}
	if f := fx.pop(0); !f.Tail || fx.ins[0].count != 0 || s.used[0] != 0 {
		t.Fatalf("wrap: last flit %v, count %d, pool counter %d", f, fx.ins[0].count, s.used[0])
	}
}

// TestPoolExhaustedPanics plants the violation the per-pool occupancy
// counter exists for: an upstream that overruns the pool's budget while
// every VC is still under its own admission cap. A DAMQ port pool holds
// 4 flits over two VCs whose caps are 3 each.
func TestPoolExhaustedPanics(t *testing.T) {
	r := orgTestRouter(OrgDAMQ)
	fr := frame(5, 0, 2, 5, 0, 0)
	for k := 0; k < 4; k++ {
		pushFlit(r, r.in(0, k%2), fr.FlitAt(k))
	}
	v := r.in(0, 0)
	if int(v.count) >= r.store.capOf(int(v.idx)) {
		t.Fatalf("VC at its own cap (%d flits); the test would not isolate the pool bound", v.count)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "buffer pool exhausted") {
			t.Fatalf("push past poolCap: recovered %q, want the pool-exhausted panic", msg)
		}
	}()
	pushFlit(r, v, fr.FlitAt(4))
}

// TestPooledSnapshotCanonical pins that the snapshot encoding depends
// only on logical FIFO order, not ring phase: a store whose rings have
// been advanced by pops round-trips to a byte-identical re-encoding
// (every restored ring starts at offset zero).
func TestPooledSnapshotCanonical(t *testing.T) {
	src := newStoreFixture(OrgCreditShared)
	fr := frame(9, 1, 3, 8, 0, 1)
	// Advance ring phases: interleaved pushes with pops between.
	src.push(0, fr.FlitAt(0))
	src.push(1, fr.FlitAt(1))
	src.push(0, fr.FlitAt(2))
	src.pop(0)
	src.push(2, fr.FlitAt(3))
	src.push(0, fr.FlitAt(4))
	src.grantOnHead(0)
	if src.head[0] == 0 {
		t.Fatal("source ring 0 is at offset zero; the test no longer exercises ring phase")
	}
	encode := func(fx *storeFixture) []byte {
		var e snapshot.Encoder
		for i := range fx.ins {
			e.Uvarint(uint64(fx.ins[i].count))
			fx.saveVC(&e, i, int(fx.ins[i].count))
		}
		fx.saveLedger(&e)
		return e.Bytes()
	}
	raw := encode(src)
	dst := newStoreFixture(OrgCreditShared)
	d := snapshot.NewDecoder(raw)
	for i := range dst.ins {
		n := d.Count(dst.capOf(i))
		dst.ins[i].count = int32(n)
		dst.loadVC(d, i, n)
	}
	dst.loadLedger(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	dst.audit(t)
	if again := encode(dst); !bytes.Equal(again, raw) {
		t.Fatal("re-encoding after restore is not byte-identical")
	}
}

// orgTestRouter is a degree-2 router (node 1 of a 4-ring) over
// testConfig under the given organization.
func orgTestRouter(org BufferOrg) *Router {
	cfg := testConfig()
	cfg.Org = org
	return New(1, topology.NewTorus(4, 1), routing.MinimalAdaptive{}, cfg)
}

func sharedTestRouter(t *testing.T) *Router {
	t.Helper()
	return orgTestRouter(OrgCreditShared)
}

// routedTestRouter is sharedTestRouter with one injected header holding
// an output VC: the held output's owner is injection input (2,0).
func routedTestRouter(t *testing.T) (*Router, *inVC, *outVC) {
	t.Helper()
	r := sharedTestRouter(t)
	r.Inject(0, frame(13, 1, 2, 4, 0, 0).FlitAt(0))
	r.RouteAndAllocate(nil)
	p, vc := heldOutput(t, r)
	return r, r.in(r.InjPort(0), 0), &r.vcsOf(p)[vc]
}

// sentinel is a field value whose encoding appears once in a test
// router's snapshot, marking where spliceInt plants a corrupt value.
const sentinel = 12345

// spliceInt replaces the one encoded Int equal to sentinel in raw with
// bad: how a row writes a value the narrowed field cannot hold.
func spliceInt(t *testing.T, raw []byte, bad int) []byte {
	t.Helper()
	var s, b snapshot.Encoder
	s.Int(sentinel)
	b.Int(bad)
	if n := bytes.Count(raw, s.Bytes()); n != 1 {
		t.Fatalf("sentinel encoding occurs %d times in the snapshot, want 1", n)
	}
	return bytes.Replace(raw, s.Bytes(), b.Bytes(), 1)
}

// TestLoadStateRejectsCorruptSnapshots is the router's table of corrupt
// or hostile payloads, each rejected with a descriptive error by the
// restore — LoadState, then CheckInvariants as the network's walk runs
// it: LoadState rejects oversized per-VC counts, credit/window pairs
// outside 0 <= credit <= window <= maxWindow, an index Transmit or
// allocation would dereference outside the router, and a value outside
// the range of the narrow field it restores into; CheckInvariants
// rejects a granted-window ledger outside its bounds, below the
// occupancy it must cover or over the pool's budget, a grant rotation
// cursor out of range, and two inputs allocated one output VC.
func TestLoadStateRejectsCorruptSnapshots(t *testing.T) {
	save := func(r *Router) []byte {
		var e snapshot.Encoder
		r.SaveState(&e)
		return e.Bytes()
	}
	// Sanity: unmodified snapshots restore cleanly, idle or holding an
	// allocation.
	if err := sharedTestRouter(t).LoadState(snapshot.NewDecoder(save(sharedTestRouter(t)))); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	routed, _, _ := routedTestRouter(t)
	if err := sharedTestRouter(t).LoadState(snapshot.NewDecoder(save(routed))); err != nil {
		t.Fatalf("clean routed snapshot rejected: %v", err)
	}
	cases := []struct {
		name, wantSub string
		build         func(t *testing.T) []byte
	}{
		{"count-over-cap", "collection length", func(t *testing.T) []byte {
			// The payload's first byte is input VC 0's flit count
			// (uvarint); 100 is a single byte and far over the window cap.
			raw := save(sharedTestRouter(t))
			raw[0] = 100
			return raw
		}},
		{"pool-overflow", "granted sum 10 exceeds capacity 8", func(t *testing.T) []byte {
			// Three VCs each hold a worm of three flits inside its own
			// grant of 3 (the window cap), which together oversubscribe
			// the 8-slot shared pool.
			r := sharedTestRouter(t)
			for i := 0; i < 3; i++ {
				fr := frame(flit.MessageID(11+i), 1, 3, 9, 0, 0)
				v := &r.ins[i]
				v.active, v.worm, v.count = true, fr.WormID(), 3
				for k := 0; k < 3; k++ {
					*r.store.at(i, k) = fr.FlitAt(k)
				}
				r.store.granted[i] = 3
			}
			return save(r)
		}},
		{"granted-over-cap", "granted 99 outside", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.store.granted[0] = 99
			return save(r)
		}},
		{"granted-below-occupancy", "exceeds granted", func(t *testing.T) []byte {
			// Two buffered flits against the default 1-slot grant.
			r := sharedTestRouter(t)
			fr := frame(12, 1, 3, 4, 0, 0)
			v := r.in(0, 0)
			v.active, v.worm = true, fr.WormID()
			pushFlit(r, v, fr.FlitAt(0))
			pushFlit(r, v, fr.FlitAt(1))
			return save(r)
		}},
		{"grant-sum-over-pool", "exceeds capacity", func(t *testing.T) []byte {
			// Every grant individually legal (<= cap 3) but the sum (12)
			// oversubscribes the 8-slot pool budget.
			r := sharedTestRouter(t)
			for i := range r.store.granted {
				r.store.granted[i] = 3
			}
			return save(r)
		}},
		{"grant-rotation-out-of-range", "grant rotation", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.store.grantRR[0] = 9
			return save(r)
		}},
		{"credit-over-window", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			ov := &r.vcsOf(0)[0]
			ov.credit = ov.window + 1
			return save(r)
		}},
		{"credit-negative", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.vcsOf(0)[0].credit = -1
			return save(r)
		}},
		{"window-over-max", "outside bounds", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			ov := &r.vcsOf(0)[1]
			ov.window = 9
			ov.credit = 9
			return save(r)
		}},
		{"routed-output-port-out-of-range", "does not exist", func(t *testing.T) []byte {
			r, in, _ := routedTestRouter(t)
			in.outP = 50
			return save(r)
		}},
		{"routed-output-vc-out-of-range", "does not exist", func(t *testing.T) []byte {
			r, in, _ := routedTestRouter(t)
			in.outV = -1
			return save(r)
		}},
		{"output-rr-out-of-range", "round-robin pointer", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.outs[1].rr = int32(len(r.ins))
			return save(r)
		}},
		{"two-inputs-routed-to-one-output", "input (0,0) allocation to (0,1) inconsistent", func(t *testing.T) []byte {
			// A second active input names the output the injected
			// header holds: two holders for one output VC. The holder
			// derived on load is the later input, so the first points
			// at an output it does not hold.
			r, in, _ := routedTestRouter(t)
			v := &r.ins[0]
			v.active, v.worm = true, 77
			v.outP, v.outV = in.outP, in.outV
			return save(r)
		}},
		// The next five rows restored with a nil error before LoadState
		// range-checked each value as an int ahead of narrowing it into
		// the int16/int32 fields of inVC and outVC. Values those fields
		// cannot hold are planted through a sentinel (spliceInt).
		{"blocked-negative", "blocked count", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.ins[0].blocked = -7
			return save(r)
		}},
		{"blocked-over-int32", "blocked count", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.ins[0].blocked = sentinel
			return spliceInt(t, save(r), 1<<40)
		}},
		{"max-hops-negative", "max hops", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.maxHops = -3
			return save(r)
		}},
		{"unrouted-input-names-output", "routed to output (-1,5), which does not exist", func(t *testing.T) []byte {
			// Half routed: no output port, but an output VC.
			r := sharedTestRouter(t)
			r.ins[0].outP, r.ins[0].outV = -1, 5
			return save(r)
		}},
		{"ejection-credit-over-int32", "ejection output", func(t *testing.T) []byte {
			r := sharedTestRouter(t)
			r.vcsOf(r.EjPort(0))[0].credit = sentinel
			return spliceInt(t, save(r), 1<<40)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.build(t)
			// A restore is LoadState, then the network's consistency
			// walk, which starts with each router's CheckInvariants.
			r := sharedTestRouter(t)
			err := r.LoadState(snapshot.NewDecoder(raw))
			if err == nil {
				err = r.CheckInvariants()
			}
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
