package workload

import (
	"fmt"

	"crnet/internal/flit"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// Submitter is the sink a Replayer feeds; network.Network satisfies it.
type Submitter interface {
	SubmitMessage(m flit.Message)
}

// Replayer feeds a materialized Trace into a network, one cycle at a
// time. Its entire position is three integers (record index, loop
// epoch, next message id), which is what makes trace-driven services
// checkpointable: SaveState/LoadState capture the position exactly, and
// a restored replayer submits the same messages with the same ids at
// the same cycles as one that never stopped.
//
// A trace is immutable once a replayer holds it: the replayer digests it
// once, at construction, and every checkpoint carries that digest.
type Replayer struct {
	trace *Trace //cr:nosnap immutable input supplied by the constructor; checkpoints name it by fp
	fp    uint64 //cr:unread the trace's Fingerprint, set by NewReplayer; LoadState reads it to refuse a foreign trace and never restores it
	loop  bool

	idx     int   // next record to submit
	epoch   int64 // completed loops (loop mode)
	nextMsg flit.MessageID
}

// NewReplayer returns a replayer over trace. With loop true the trace
// repeats forever, each epoch shifted by the trace duration; otherwise
// the replayer runs dry after the last record. The trace must validate,
// and must not change while the replayer holds it.
func NewReplayer(trace *Trace, loop bool) *Replayer {
	if err := trace.Validate(); err != nil {
		panic(err)
	}
	if loop && trace.Duration() == 0 {
		panic("workload: cannot loop an empty trace")
	}
	return &Replayer{trace: trace, fp: trace.Fingerprint(), loop: loop}
}

// Done reports whether a non-looping replay has submitted every record.
func (r *Replayer) Done() bool {
	return !r.loop && r.idx >= len(r.trace.Records)
}

// Submitted returns how many messages have been submitted so far.
func (r *Replayer) Submitted() int64 { return int64(r.nextMsg) }

// Tick submits every record due at the given cycle and returns how many
// it submitted. Cycles must be visited in nondecreasing order; records
// whose time was skipped are submitted on the next call (late, but
// never lost and always in order).
func (r *Replayer) Tick(net Submitter, cycle int64) int {
	n := 0
	for {
		if r.idx >= len(r.trace.Records) {
			if !r.loop {
				return n
			}
			r.idx = 0
			r.epoch++
		}
		rec := &r.trace.Records[r.idx]
		due := rec.Cycle + r.epoch*r.trace.Duration()
		if due > cycle {
			return n
		}
		r.idx++
		r.nextMsg++
		net.SubmitMessage(flit.Message{
			ID:         r.nextMsg,
			Src:        rec.Src,
			Dst:        rec.Dst,
			DataLen:    rec.DataLen,
			CreateTime: cycle,
		})
		n++
	}
}

// SaveState appends the replayer's position to a snapshot, prefixed
// with the trace fingerprint so a restore under a different trace fails
// loudly. It allocates nothing on an encoder with room to spare.
func (r *Replayer) SaveState(e *snapshot.Encoder) {
	e.U64(r.fp)
	e.Bool(r.loop)
	e.Int(r.idx)
	e.Varint(r.epoch)
	e.U64(uint64(r.nextMsg))
}

// LoadState restores a position written by SaveState. The replayer must
// hold the same trace (by fingerprint) and loop mode.
func (r *Replayer) LoadState(d *snapshot.Decoder) error {
	fp := d.U64()
	loop := d.Bool()
	idx := d.Int()
	epoch := d.Varint()
	next := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if want := r.fp; fp != want {
		return fmt.Errorf("workload: snapshot trace fingerprint %016x does not match %q (%016x)",
			fp, r.trace.Name, want)
	}
	if loop != r.loop {
		return fmt.Errorf("workload: snapshot loop=%t, replayer loop=%t", loop, r.loop)
	}
	if idx < 0 || idx > len(r.trace.Records) || epoch < 0 {
		return fmt.Errorf("workload: snapshot replay position idx=%d epoch=%d invalid", idx, epoch)
	}
	r.idx = idx
	r.epoch = epoch
	r.nextMsg = flit.MessageID(next)
	return nil
}

// TraceFor sizes a TraceSpec to a topology: node count from the
// topology, rate derived from the per-node flit capacity so that load
// is expressed as a fraction of saturation exactly like the open-loop
// traffic package does (rate = load * capacity / msgLen).
func TraceFor(topo topology.Topology, load float64, msgLen int, cycles int64, seed uint64, capacityFlitsPerNode float64) TraceSpec {
	if load <= 0 || msgLen < 1 || capacityFlitsPerNode <= 0 {
		panic(fmt.Sprintf("workload: TraceFor load=%g msgLen=%d capacity=%g", load, msgLen, capacityFlitsPerNode))
	}
	rate := load * capacityFlitsPerNode / float64(msgLen)
	if rate > 1 {
		rate = 1
	}
	return TraceSpec{
		Nodes:  topo.Nodes(),
		Cycles: cycles,
		Rate:   rate,
		MsgLen: msgLen,
		Seed:   seed,
	}
}
