// Package network is a shardsafe fixture: this directory maps to
// crnet/internal/network, so the analyzer treats the shard* methods
// below as the per-range phase roots and polices what they reach.
package network

// topo stands in for the immutable topology interface.
type topo interface{ neighbor(int) int }

// cfg has a value-receiver method: calling it copies the field and
// cannot mutate the Network.
type cfg struct{ max int }

func (c cfg) limit() int { return c.max }

// nodeSet has a pointer-receiver method, so calling it through a
// Network field mutates shared state.
type nodeSet struct{ ids []int32 }

func (s *nodeSet) add(id int32) { s.ids = append(s.ids, id) }

type router struct{ busy bool }

func (r *router) apply() { r.busy = true }

type receiver struct{ got []int }

func (r *receiver) drain() { r.got = r.got[:0] }

// sink collects one context's side effects; Network embeds the
// coordinator's, each shard its own.
type sink struct {
	signals    []int
	deliveries int
}

func (s *sink) bump() { s.deliveries++ }

type shard struct {
	sink
	credits  []int
	worklist nodeSet
	panicked any
}

type Network struct {
	sink
	shards    []shard
	recvMark  []bool
	routers   []*router
	receivers []receiver
	stray     nodeSet // a worklist that belongs on the shard descriptor
	tracer    func(int)
	hooks     topo
	cfg       cfg
	cycle     int
	lastEvent int
	dropped   int
	flits     int

	topo topo //cr:sharded topology is immutable after construction

	//cr:sharded
	scratch []int // want `//cr:sharded needs a justification`
}

// shardWorker is a root: everything it reaches is checked.
func (n *Network) shardWorker(si int) {
	sh := &n.shards[si]
	defer func() { sh.panicked = recover() }()   // the panic hand-off rides the descriptor
	sh.worklist.add(int32(si))                   // shard-local worklist: fine
	sh.credits = sh.credits[:0]                  // shard-local: rooted at the descriptor
	n.shards[si].credits = append(sh.credits, 7) // sanctioned seam: through shards
	n.recvMark[si] = false                       // want `write to shared Network\.recvMark in shardWorker`
	n.deliveries++                               // want `write to shared Network\.sink in shardWorker`
	n.tracer(si)                                 // want `call through shared func field Network\.tracer in shardWorker`
	n.stray.add(int32(si))                       // want `call to add on shared field Network\.stray in shardWorker`
	n.bump()                                     // want `call to bump on shared field Network\.sink in shardWorker`
	_ = n.hooks.neighbor(si)                     // want `call to neighbor on shared field Network\.hooks in shardWorker`
	_ = n.topo.neighbor(si)                      // field-level escape with a reason
	_ = n.cfg.limit()                            // value receiver: operates on a copy
	n.routers[si].apply()                        // per-node state: index in the chain
	n.receiverAt(si).drain()                     // call-result receiver: out of scope
	n.scratch = n.scratch[:0]                    // field-level escape (reason missing, flagged once at the field)
	n.scratch = append(n.scratch, si)            // second use through the same escape: no extra finding
	n.lastEvent = si                             //cr:sharded phase zero runs on a single worker
	n.helper()
	n.finalize()
	//cr:sharded
	n.dropped++ // want `//cr:sharded needs a justification`
	n.bury()
	defer func() { n.flits++ }() // want `write to shared Network\.flits in shardWorker`
}

// helper is not a root, but shardWorker reaches it.
func (n *Network) helper() {
	n.cycle++ // want `write to shared Network\.cycle in helper`
}

// receiverAt hands out per-node state; reading shared slices is fine.
func (n *Network) receiverAt(id int) *receiver {
	return &n.receivers[id]
}

//cr:sharded runs after the barrier on the coordinating goroutine
func (n *Network) finalize() {
	n.cycle++ // vouched for by the function-level escape above
}

//cr:sharded
func (n *Network) bury() { // want `//cr:sharded needs a justification`
	n.cycle++
}

// merge is neither a root nor reachable from one: the coordinator may
// touch anything.
func (n *Network) merge() {
	n.recvMark[0] = true
	n.signals = n.signals[:0]
}
