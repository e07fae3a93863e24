package network

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

// TestHotStructSizes pins the per-element cost of what the kernel holds
// one of per link (link: the flat array is the only O(links) state), per
// buffered or in-flight flit (flit.Flit), per busy link (linkRef and the
// worklist entry inFlight) and per credit moved (creditEvent). A field
// added to any of them fails here, in the allocation gate (make
// alloc-gate), instead of drifting into peak RSS unnoticed.
func TestHotStructSizes(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
		exact      bool
	}{
		{"link", unsafe.Sizeof(link{}), 24, false},
		{"flit.Flit", unsafe.Sizeof(flit.Flit{}), 32, true},
		{"linkRef", unsafe.Sizeof(linkRef{}), 8, true},
		{"inFlight", unsafe.Sizeof(inFlight{}), 48, true},
		{"creditEvent", unsafe.Sizeof(creditEvent{}), 16, true},
	} {
		if c.size > c.want || c.exact && c.size != c.want {
			t.Errorf("%s is %d bytes, want %d (exact: %t)", c.name, c.size, c.want, c.exact)
		}
	}
}

// TestMillionNodeTorus pins the memory diet: a 1024x1024 torus (2^20
// nodes, 4M links) must construct and step within a modest heap. The
// flat link array is the only per-link cost (24 B each, ~100 MB total;
// the heap after this run measures 149 MiB on linux/amd64, go1.24:
// the links are the heap, the 16 routers this run builds hold few
// flits, and the router reserve adds a pointer per 8 nodes);
// routers, injectors, and receivers are built lazily, so a run that
// touches a corner of the network pays only for that corner. The
// test routes real traffic through a handful of neighborhoods under the
// sharded kernel and then checks both that deliveries happen and that
// the component arrays stayed almost entirely nil — and that they still
// are after a checkpoint and a restore into a fresh network.
func TestMillionNodeTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node construction is slow in -short mode")
	}
	const k = 1024
	topo := topology.NewTorus(k, 2)
	cfg := Config{
		Topo:     topo,
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Shards:   8,
		Seed:     1,
	}
	n := New(cfg)
	if n.LinkCount() != k*k*4 {
		t.Fatalf("link count = %d, want %d", n.LinkCount(), k*k*4)
	}

	// A few short-haul conversations scattered across the square: each
	// source talks to a node 3 hops away, so only small neighborhoods
	// ever construct routers.
	pairs := [][2]topology.NodeID{}
	for _, base := range []int{0, 511*k + 511, 1023*k + 1020, 256 * k} {
		src := topology.NodeID(base)
		dst := topology.NodeID((base + 3) % (k * k))
		pairs = append(pairs, [2]topology.NodeID{src, dst})
	}
	var id flit.MessageID
	// wave submits one message per pair and steps until all arrive.
	wave := func(n *Network) {
		t.Helper()
		for _, p := range pairs {
			id++
			n.SubmitMessage(flit.Message{ID: id, Src: p[0], Dst: p[1], DataLen: 4, CreateTime: n.Cycle()})
		}
		delivered := 0
		for c := 0; c < 400 && delivered < len(pairs); c++ {
			n.Step()
			delivered += len(n.DrainDeliveries())
		}
		if delivered != len(pairs) {
			t.Fatalf("delivered %d of %d messages in 400 cycles", delivered, len(pairs))
		}
	}
	wave(n)

	// The diet itself: lazy construction must have left nearly all of
	// the million component slots nil.
	routers, _, _ := built(n)
	if routers == 0 || routers > 1024 {
		t.Fatalf("constructed %d routers, want a small non-zero neighborhood", routers)
	}

	// And it survives a checkpoint: the save describes the neighborhoods,
	// the restore into a fresh network builds only them, and a second
	// wave lands the restored network where it lands the original. One
	// network is live at a time.
	ckpt := saveBytes(n)
	firstID := id
	wave(n)
	want := saveBytes(n)
	n = New(cfg)
	mustLoad(t, n, ckpt)
	if r, _, _ := built(n); r != routers {
		t.Fatalf("restore built %d routers, the snapshot carries %d", r, routers)
	}
	id = firstID
	wave(n)
	if !bytes.Equal(saveBytes(n), want) {
		t.Fatal("restored million-node network diverged from the original")
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(n)         // the network must still be live when measured
	const heapBudget = 512 << 20 // 512 MiB, ~5x the link array
	if ms.HeapAlloc > heapBudget {
		t.Fatalf("heap after million-node run = %d MiB, budget %d MiB",
			ms.HeapAlloc>>20, heapBudget>>20)
	}
	t.Logf("heap after run: %d MiB, routers built: %d, checkpoint: %d KiB", ms.HeapAlloc>>20, routers, len(ckpt)>>10)
}
