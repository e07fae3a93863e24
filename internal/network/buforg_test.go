package network

import (
	"fmt"
	"reflect"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/rng"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// sharedOrgs are the two organizations with dynamic window grants — the
// ones whose advertisement traffic exercises machinery the static
// default never touches.
var sharedOrgs = []router.BufferOrg{router.OrgDAMQ, router.OrgCreditShared}

// bufOrgPinConfigs draws three random topologies per shared
// organization, under the same corruption, fail/repair timeline and
// hazards as the static-FIFO pins — which add kill teardowns and link
// repairs, the paths where the grant ledger is subtlest.
// TestKernelGolden replays the same six against digests recorded from
// the linked-slot pool this store replaced.
func bufOrgPinConfigs() []pinConfig {
	var out []pinConfig
	for _, org := range sharedOrgs {
		r := rng.New(0xB0F0 + uint64(org))
		const configs = 3
		for i := 0; i < configs; i++ {
			cfg, load, msgLen := randomConfig(r, uint64(i)+9300+1000*uint64(org))
			cfg.BufOrg = org
			name := fmt.Sprintf("%s_cfg%02d_%s_%s", org, i, cfg.Topo.Name(), cfg.Protocol)
			out = append(out, newPinConfig(name, i, cfg, load, msgLen))
		}
	}
	return out
}

// TestShardedMatchesSerialBufferOrgs extends the serial/sharded pin to
// the shared buffer organizations: window grants, release top-ups and
// shrink advertisements all ride the cross-shard credit mailbox matrix,
// and the delivery stream, stats and trace must stay byte-identical to
// the serial kernel for every shard count.
func TestShardedMatchesSerialBufferOrgs(t *testing.T) {
	for _, pc := range bufOrgPinConfigs() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			serial := pc.run(0)
			for _, s := range shardCounts() {
				got := pc.run(s)
				if !reflect.DeepEqual(got.kernelSnapshot, serial.kernelSnapshot) {
					t.Errorf("shards=%d diverged from serial:\nsharded: cycle=%d deliveries=%d flits=%d\nserial:  cycle=%d deliveries=%d flits=%d",
						s, got.cycle, len(got.deliveries), got.flits,
						serial.cycle, len(serial.deliveries), serial.flits)
					continue
				}
				if !reflect.DeepEqual(got.events, serial.events) {
					t.Errorf("shards=%d trace diverged (%d vs %d events)", s, len(got.events), len(serial.events))
				}
			}
		})
	}
}

// TestResumeBufferOrgStores pins the snapshot round trip of the
// organization-specific state: buffered FIFOs, the granted-window
// ledger, grant rotation cursors and per-output windows must all
// restore such that the resumed network replays the rest of the run
// byte-identically — for every organization, mid-flight, with faults
// and kill teardowns in the window (stranded tenures included).
func TestResumeBufferOrgStores(t *testing.T) {
	for _, org := range router.BufferOrgs {
		t.Run(org.String(), func(t *testing.T) {
			topo := topology.NewTorus(5, 2)
			timeline := faults.TimelineConfig{
				Links:    LinksOf(topo),
				LinkMTBF: 700, LinkMTTR: 50,
				Start: 20, Horizon: 1200,
				Seed: 5,
			}
			newNet := func() *Network {
				return New(Config{
					Topo:          topo,
					Alg:           routing.MinimalAdaptive{},
					Protocol:      core.CR,
					BufOrg:        org,
					VCs:           2,
					BufDepth:      2,
					TransientRate: 1e-3,
					Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
					Seed:          17,
					Check:         true,
					Faults:        faults.RandomTimeline(timeline),
				})
			}
			drive := func(n *Network, from, to int64) []core.Delivery {
				gen := traffic.NewGenerator(topo, traffic.Uniform{Nodes: topo.Nodes()}, 0.4, 7, 23)
				var out []core.Delivery
				for c := from; c < to; c++ {
					for node := 0; node < topo.Nodes(); node++ {
						if m, ok := gen.Tick(topology.NodeID(node), c); ok {
							n.SubmitMessage(m)
						}
					}
					n.Step()
					out = append(out, n.DrainDeliveries()...)
				}
				return out
			}
			const half, full = 600, 1200
			src := newNet()
			drive(src, 0, half)
			var e snapshot.Encoder
			src.SaveState(&e)
			rest := newNet()
			if err := rest.LoadState(snapshot.NewDecoder(e.Bytes())); err != nil {
				t.Fatalf("%s: restore failed: %v", org, err)
			}
			wantSecond := drive(src, half, full)
			gotSecond := drive(rest, half, full)
			if !reflect.DeepEqual(gotSecond, wantSecond) {
				t.Fatalf("%s: restored run diverged: %d deliveries vs %d", org, len(gotSecond), len(wantSecond))
			}
			if src.Cycle() != rest.Cycle() {
				t.Fatalf("%s: restored cycle %d, want %d", org, rest.Cycle(), src.Cycle())
			}
		})
	}
}

// TestChaosSoakBufferOrgs soaks the shared organizations under
// transient corruption and kill-heavy load with Check enabled, so
// every cycle audits flit conservation (per pool, Σ occupancy of its
// VCs == the pool's counter), the granted-window ledger bounds and the
// credit/window ranges — across the teardown churn where the grant
// tenure protocol is subtlest. The accounting oracle is strict: every
// submitted message must deliver exactly once (or be counted failed).
//
// Permanent fail/repair timelines are deliberately absent: no protocol
// variant guarantees lossless delivery under permanent faults in any
// organization (a committed worm whose path dies can be abandoned —
// static FIFO included), so the strict oracle cannot hold there. The
// faulted paths of the shared organizations (including grant resets on
// link repair) are pinned instead by TestShardedMatchesSerialBufferOrgs
// and TestResumeBufferOrgStores, whose oracles are determinism and
// snapshot fidelity. The path-wide timeout ablation is excluded for
// the same reason: it abandons the occasional committed worm even
// without faults.
func TestChaosSoakBufferOrgs(t *testing.T) {
	for _, org := range sharedOrgs {
		t.Run(org.String(), func(t *testing.T) {
			r := rng.New(0xC8A05 + uint64(org))
			for i := 0; i < 2; i++ {
				cfg, load, msgLen := randomConfig(r, uint64(i)+9700+1000*uint64(org))
				cfg.BufOrg = org
				cfg.TransientRate = 1e-3
				cfg.RouterTimeout = 0
				soakOne(t, cfg, load, msgLen)
			}
		})
	}
}
