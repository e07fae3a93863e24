package faults

import (
	"fmt"

	"crnet/internal/rng"
)

// TimelineConfig parameterizes RandomTimeline: an MTBF/MTTR-driven
// random fail/repair schedule over a set of links and nodes, the chaos
// workload for the E24 soak. Means are in cycles; a zero mean disables
// that entity class.
type TimelineConfig struct {
	// Links are the candidate links; each gets an independent
	// fail/repair process with the link means.
	Links []LinkID
	// Nodes are the candidate routers; each gets an independent
	// fail/repair process with the node means.
	Nodes []int
	// LinkMTBF and LinkMTTR are the mean up and down durations of one
	// link, in cycles.
	LinkMTBF, LinkMTTR float64
	// NodeMTBF and NodeMTTR are the mean up and down durations of one
	// node, in cycles.
	NodeMTBF, NodeMTTR float64
	// Start and Horizon bound failure cycles to [Start, Horizon). Every
	// failure gets a matching repair, which may land past Horizon.
	Start, Horizon int64
	// Seed makes the timeline deterministic. Each entity derives its
	// own decorrelated stream from it (splitmix64 mixing, like
	// harness.PointSeed).
	Seed uint64
}

// mix derives a decorrelated per-entity seed from the timeline seed via
// a splitmix64 round, mirroring harness.PointSeed so entity streams stay
// independent of each other and of the sweep's point seeds.
func mix(base uint64, entity int) uint64 {
	x := base + uint64(entity+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// duration maps the draw x to one up or down sojourn of the given mean,
// a shifted geometric, so sojourns are >= 1 cycle and memoryless in
// expectation.
func duration(x uint64, mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	return 1 + int64(rng.Geometric(x, 1/mean))
}

// RandomTimeline builds a random fail/repair schedule: every entity
// alternates exponential-ish (geometric) up and down sojourns with the
// configured means, starting up at cfg.Start. Failures occurring at or
// after Horizon are discarded; every emitted failure has a matching
// repair event, even if the repair lands past Horizon, so the network
// always returns to full health.
func RandomTimeline(cfg TimelineConfig) *Schedule {
	if cfg.Horizon <= cfg.Start {
		panic(fmt.Sprintf("faults: timeline horizon %d not after start %d", cfg.Horizon, cfg.Start))
	}
	var events []Event
	emit := func(r *rng.Source, mtbf, mttr float64, fail, repair Event) {
		if mtbf <= 0 || mttr <= 0 {
			return
		}
		now := cfg.Start
		for {
			now += duration(r.Uint64(), mtbf)
			if now >= cfg.Horizon {
				return
			}
			fail.Cycle = now
			events = append(events, fail)
			now += duration(r.Uint64(), mttr)
			repair.Cycle = now
			events = append(events, repair)
		}
	}
	for i, l := range cfg.Links {
		r := rng.New(mix(cfg.Seed, i))
		emit(r, cfg.LinkMTBF, cfg.LinkMTTR,
			Event{Kind: LinkEvent, Link: l},
			Event{Kind: LinkEvent, Link: l, Up: true})
	}
	for i, node := range cfg.Nodes {
		r := rng.New(mix(cfg.Seed, len(cfg.Links)+i))
		emit(r, cfg.NodeMTBF, cfg.NodeMTTR,
			Event{Kind: NodeEvent, Node: node},
			Event{Kind: NodeEvent, Node: node, Up: true})
	}
	return NewSchedule(events)
}
