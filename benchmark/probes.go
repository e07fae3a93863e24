package main

import (
	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/topology"
	"crnet/internal/workload"
)

// Standalone micro-probes: layers timed in isolation, the same way in
// every workload's traced run, so that a change to one layer shows here
// before (and whether or not) it shows end to end.

func (r *run) probes() {
	flits, routes := 200000, 200000
	if r.opt.mini {
		flits, routes = 5000, 5000
	}
	r.span("probes", -1, func(span int) {
		topo := topology.NewTorus(16, 2)
		for _, p := range []struct {
			metric string
			org    router.BufferOrg
		}{
			{"router.fifo_ns_per_flit", router.OrgStaticFIFO},
			{"router.damq_ns_per_flit", router.OrgDAMQ},
			{"router.shared_ns_per_flit", router.OrgCreditShared},
		} {
			d := r.span(p.metric, span, func(int) {
				r.check(streamRouter(topo, p.org, flits), "%s: the standalone router stalled", p.metric)
			})
			r.set(p.metric, float64(d)/float64(flits))
		}
		const routers = 1000
		d := r.span("router.new", span, func(int) {
			for i := 0; i < routers; i++ {
				router.New(topology.NodeID(i%topo.Nodes()), topo, routing.MinimalAdaptive{}, probeRouterConfig(router.OrgStaticFIFO))
			}
		})
		r.set("router.new_us", float64(d)/1e3/routers)

		d = r.span("routing.route", span, func(int) { routeProbe(topo, routes, r.opt.seed) })
		r.set("routing.ns_per_route", float64(d)/float64(2*routes))

		trace := workload.GenUniform(workload.TraceSpec{Nodes: topo.Nodes(), Cycles: 2000, Rate: 0.05, MsgLen: msgLen, Seed: r.opt.seed})
		var sink nullSubmitter
		d = r.span("workload.replay", span, func(int) {
			rep := workload.NewReplayer(trace, false)
			for c := int64(0); !rep.Done(); c++ {
				rep.Tick(&sink, c)
			}
		})
		r.set("workload.replay_ns_per_record", ratio(float64(d), float64(len(trace.Records))))
		r.check(sink.n == int64(len(trace.Records)), "replayer submitted %d of %d records", sink.n, len(trace.Records))
	})
}

type nullSubmitter struct{ n int64 }

func (s *nullSubmitter) SubmitMessage(flit.Message) { s.n++ }

func probeRouterConfig(org router.BufferOrg) router.Config {
	return router.Config{VCs: 2, BufDepth: 2, InjectionChannels: 1, EjectionChannels: 1, Org: org}
}

// streamRouter streams 16-flit worms through one router, from the
// network input port facing its -x neighbour to the +x output, playing
// both neighbours: upstream it honours the input VC's credit window
// (including the deltas the shared organizations advertise), downstream
// it returns every credit the moment the flit leaves. It reports false
// if the router stops moving flits.
func streamRouter(topo *topology.Grid, org router.BufferOrg, flits int) bool {
	cfg := probeRouterConfig(org)
	rt := router.New(0, topo, routing.MinimalAdaptive{}, cfg)
	inPort := int(topology.PortFor(0, false))

	// Worms are built ahead of the timed loop's needs and reused in
	// rotation; a worm has long left before its id comes round again.
	const worms = 64
	src, dst := topo.Node(topo.Radix()-1, 0), topo.Node(1, 0)
	stream := make([]flit.Flit, 0, worms*msgLen)
	for w := 0; w < worms; w++ {
		fr := flit.Frame{Msg: flit.Message{ID: flit.MessageID(w + 1), Src: src, Dst: dst, DataLen: msgLen}}
		for seq := 0; seq < msgLen; seq++ {
			stream = append(stream, fr.FlitAt(seq))
		}
	}

	free := 1 // the shared organizations start each VC at its reserve
	if org == router.OrgStaticFIFO {
		free = cfg.BufDepth
	}
	rt.SetAdvertiser(func(_, _, delta int) { free += delta })
	move := func(outPort, outVC int, _ flit.Flit) { rt.ApplyCredit(outPort, outVC, 1, 0) }
	credit := func(int, int) { free++ }
	var emits []router.Emit
	next, moved := 0, 0
	for cycles := 0; moved < flits; cycles++ {
		if cycles > 4*flits {
			return false
		}
		if free > 0 {
			free--
			rt.AcceptFlit(inPort, 0, stream[next%len(stream)])
			next++
		}
		emits = rt.RouteAndAllocate(emits[:0])
		before := rt.Stats().FlitsMoved
		rt.Transmit(move, credit)
		moved += int(rt.Stats().FlitsMoved - before)
	}
	return true
}

// routeProbe routes n seeded (current, destination) pairs through the
// fully adaptive and the dimension-order algorithm.
func routeProbe(topo *topology.Grid, n int, seed uint64) {
	r := rng.New(seed)
	type pair struct{ cur, dst topology.NodeID }
	pairs := make([]pair, 1024)
	for i := range pairs {
		pairs[i].cur = topology.NodeID(r.Intn(topo.Nodes()))
		for pairs[i].dst = pairs[i].cur; pairs[i].dst == pairs[i].cur; {
			pairs[i].dst = topology.NodeID(r.Intn(topo.Nodes()))
		}
	}
	var buf []routing.Candidate
	ports := make([]topology.Port, 0, topo.Degree())
	for _, alg := range []routing.Algorithm{routing.MinimalAdaptive{}, routing.DOR{}} {
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			buf = alg.Route(routing.Request{Topo: topo, Cur: p.cur, Dst: p.dst,
				InPort: topology.InvalidPort, InVC: -1, NumVCs: 2, PortBuf: ports}, buf[:0])
		}
	}
}
