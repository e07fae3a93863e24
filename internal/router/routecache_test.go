package router

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// The tests here hold the route cache (alloc.go) to routing afresh: at
// every cycle a cached router is compared with its twin, a router
// restored from the cached one's checkpoint, whose cache a restore
// leaves empty, so every waiting head there routes fresh. Both step one
// allocate-and-transmit cycle and must emit, move and end the same.

// cacheRig is one cached router under test on node 0 of a 4x4 torus.
type cacheRig struct {
	t    *testing.T
	topo topology.Topology
	cfg  Config
	r    *Router
}

func newCacheRig(t *testing.T, cfg Config) *cacheRig {
	topo := topology.NewTorus(4, 2)
	return &cacheRig{t: t, topo: topo, cfg: cfg, r: New(0, topo, routing.MinimalAdaptive{}, cfg)}
}

func routerBytes(r *Router) []byte {
	var e snapshot.Encoder
	r.SaveState(&e)
	return e.Bytes()
}

// twin returns a router in the rig router's state with no cached route:
// its checkpoint restored over its dead links, as the network restores.
func (g *cacheRig) twin() *Router {
	g.t.Helper()
	tw := New(0, g.topo, routing.MinimalAdaptive{}, g.cfg)
	for p := 0; p < g.r.Degree(); p++ {
		if !g.r.LinkUp(p) {
			tw.SetLinkDown(p)
		}
	}
	d := snapshot.NewDecoder(routerBytes(g.r))
	if err := tw.LoadState(d); err != nil {
		g.t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		g.t.Fatal(err)
	}
	return tw
}

// cycle runs one allocate-and-transmit cycle and describes what it did.
func cycle(r *Router) string {
	emits := r.RouteAndAllocate(nil)
	moves, credits := drain(r)
	return fmt.Sprintf("emits %v moves %v credits %v", emits, moves, credits)
}

// step runs n cycles on the rig router and on a fresh twin of it before
// each, requiring the same effects and end state, and the cached
// router's invariants (which compare every cached route with a fresh
// Route) before and after.
func (g *cacheRig) step(n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		if err := g.r.CheckInvariants(); err != nil {
			g.t.Fatal(err)
		}
		tw := g.twin()
		got, want := cycle(g.r), cycle(tw)
		if got != want {
			g.t.Fatalf("cached router: %s\nfresh router:  %s", got, want)
		}
		if !bytes.Equal(routerBytes(g.r), routerBytes(tw)) {
			g.t.Fatal("cached and fresh routers end the cycle in different states")
		}
		if err := g.r.CheckInvariants(); err != nil {
			g.t.Fatal(err)
		}
	}
}

// drainCredits takes one credit from every VC of network port p, so no
// head can claim them; restoreCredits gives it back.
func (g *cacheRig) drainCredits(p topology.Port) {
	for vc := 0; vc < g.cfg.VCs; vc++ {
		g.r.ApplyCredit(int(p), vc, -1, 0)
	}
}

func (g *cacheRig) restoreCredits(p topology.Port) {
	for vc := 0; vc < g.cfg.VCs; vc++ {
		g.r.ApplyCredit(int(p), vc, 1, 0)
	}
}

// waitingOn requires the injected head to be waiting with a cached
// route of n candidates.
func (g *cacheRig) waitingOn(n int) {
	g.t.Helper()
	v := g.r.in(g.r.InjPort(0), 0)
	if v.routed() || int(v.routeN) != n+1 {
		g.t.Fatalf("injected head: routed %t, cached route %d long; want waiting on %d candidates",
			v.routed(), v.routeN-1, n)
	}
}

var (
	plusX  = topology.PortFor(0, true)
	plusY  = topology.PortFor(1, true)
	minusX = topology.PortFor(0, false)
	minusY = topology.PortFor(1, false)
)

// A head waits on a cached route (+x, +y) whose +x link dies while its
// credits come home, so a stale route would claim the dead port; it
// stays blocked on +y, and claims +x once the link comes back.
func TestRouteCacheLinkDownThenUp(t *testing.T) {
	g := newCacheRig(t, testConfig())
	g.r.Inject(0, frame(1, 0, g.topo.(*topology.Grid).Node(1, 1), 2, 0, 0).FlitAt(0))
	g.drainCredits(plusX)
	g.drainCredits(plusY)
	g.step(3)
	g.waitingOn(2 * g.cfg.VCs)
	g.restoreCredits(plusX)
	g.r.SetLinkDown(int(plusX))
	g.step(3)
	g.waitingOn(g.cfg.VCs)
	g.r.SetLinkUp(int(plusX))
	g.step(1)
	if o := g.r.in(g.r.InjPort(0), 0); int(o.outP) != int(plusX) {
		t.Fatalf("head claimed port %d after the repair, want +x (%d)", o.outP, plusX)
	}
	g.step(2)
}

// A head on a retry that may misroute waits on its minimal ports while
// each of them dies; once none is left it misroutes, as a head routed
// fresh does.
func TestRouteCacheMisrouteWhenMinimalLinksDie(t *testing.T) {
	cfg := testConfig()
	cfg.MisrouteAfter, cfg.MaxDetours = 1, 2
	g := newCacheRig(t, cfg)
	g.r.Inject(0, frame(1, 0, g.topo.(*topology.Grid).Node(1, 1), 2, 0, 1).FlitAt(0))
	for _, p := range []topology.Port{plusX, plusY, minusX} {
		g.drainCredits(p)
	}
	g.step(2)
	g.waitingOn(2 * g.cfg.VCs)
	g.r.SetLinkDown(int(plusX))
	g.step(2)
	g.waitingOn(g.cfg.VCs)
	g.r.SetLinkDown(int(plusY))
	g.step(1)
	v := g.r.in(g.r.InjPort(0), 0)
	if int(v.outP) != int(minusY) || g.r.Stats().Misroutes != 1 {
		t.Fatalf("head claimed port %d with %d misroutes, want a misroute on -y (%d)", v.outP, g.r.Stats().Misroutes, minusY)
	}
	g.step(2)
}

// A head under VerifyHeaders stays blocked for several cycles, verified
// once, and claims its output when one frees up; a corrupt head is torn
// down on its first visit, as before.
func TestRouteCacheVerifiedHeadBlocked(t *testing.T) {
	cfg := testConfig()
	cfg.VerifyHeaders = true
	g := newCacheRig(t, cfg)
	dst := g.topo.(*topology.Grid).Node(1, 0)
	fr := frame(1, 3, dst, 2, 0, 0)
	g.r.AcceptFlit(int(minusX), 1, fr.FlitAt(0))
	g.drainCredits(plusX)
	g.step(5)
	if s := g.r.Stats(); s.HeaderFaults != 0 || s.BlockedHeaders != 5 {
		t.Fatalf("after 5 blocked cycles: %d header faults, %d blocked header-cycles; want 0 and 5", s.HeaderFaults, s.BlockedHeaders)
	}
	g.restoreCredits(plusX)
	g.step(1)
	if v := g.r.in(int(minusX), 1); !v.routed() {
		t.Fatal("verified head did not claim the freed output")
	}
	bad := frame(2, 3, dst, 2, 0, 0).FlitAt(0)
	bad.Payload ^= 1 << 9
	g.r.AcceptFlit(int(minusX), 0, bad)
	g.step(1)
	if g.r.Stats().HeaderFaults != 1 {
		t.Fatal("corrupt head not torn down on its first visit")
	}
	g.step(2)
}

// TestRouteCacheBytes pins the derived state's memory: the route cache
// takes at most 2 bytes per (input VC × network output VC) slot, and
// the cache and the waiting and holding masks are one allocation. A
// wider entry (a routing.Candidate is 24 bytes) or an allocation per
// structure would show in peak RSS and in restore time, which
// constructs every router the checkpoint names.
func TestRouteCacheBytes(t *testing.T) {
	for _, c := range []struct {
		topo topology.Topology
		cfg  Config
	}{
		{topology.NewTorus(4, 2), Config{VCs: 1, BufDepth: 2, InjectionChannels: 1, EjectionChannels: 1}},
		{topology.NewTorus(4, 2), Config{VCs: 2, BufDepth: 2, InjectionChannels: 2, EjectionChannels: 2}},
		{topology.NewHypercube(6), Config{VCs: 3, BufDepth: 4, InjectionChannels: 1, EjectionChannels: 1}},
	} {
		r := New(0, c.topo, routing.MinimalAdaptive{}, c.cfg)
		slots := len(r.ins) * r.Degree() * c.cfg.VCs
		masks := 2 * (words(len(r.ins)) + words(len(r.outs)))
		got := int(unsafe.Sizeof(r.routes[0])) * (len(r.waiting) + len(r.holding) + len(r.routes))
		if want := masks + 2*slots; len(r.routes) != slots || got > want {
			t.Errorf("%s, %d VCs: route cache of %d entries and masks take %d bytes, want %d slots in at most %d",
				c.topo.Name(), c.cfg.VCs, len(r.routes), got, slots, want)
		}
		if n := testing.AllocsPerRun(1, r.newDerived); n != 1 {
			t.Errorf("%s, %d VCs: the derived state takes %v allocations, want 1", c.topo.Name(), c.cfg.VCs, n)
		}
	}
}
