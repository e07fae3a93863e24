package workload

import (
	"fmt"
	"hash/fnv"
	"math"

	"crnet/internal/flit"
	"crnet/internal/rng"
	"crnet/internal/topology"
)

// Trace-driven workloads: where the closed-loop Workload types react to
// deliveries, a Trace is a fully materialized open-loop message
// schedule — every (cycle, src, dst, length) decided ahead of time.
// Materialization is what makes long-running service workloads
// checkpointable: a Replayer's position in a trace is three integers,
// so a restored run offers byte-identical load from the first resumed
// cycle, and the same trace replayed on two protocols is a controlled
// comparison.
//
// A trace is generated in-process, never loaded: the generators for
// uniform, bursty, diurnal, hotspot, incast and permutation-storm
// streams are deterministic functions of (topology, seed, parameters),
// so a restarted service regenerates the schedule its checkpoint names.

// TraceRecord schedules one message: at Cycle, Src submits a
// DataLen-flit message to Dst.
type TraceRecord struct {
	Cycle   int64
	Src     topology.NodeID
	Dst     topology.NodeID
	DataLen int
}

// Trace is a materialized message schedule for a machine of Nodes
// nodes. Records are ordered by cycle (ties in generation order, which
// replay preserves).
type Trace struct {
	Name    string
	Nodes   int
	Records []TraceRecord
}

// Validate checks the trace's internal consistency: records sorted by
// cycle, every endpoint within [0, Nodes), positive lengths.
func (t *Trace) Validate() error {
	if t.Nodes < 2 {
		return fmt.Errorf("workload: trace %q has %d nodes", t.Name, t.Nodes)
	}
	last := int64(0)
	for i, r := range t.Records {
		if r.Cycle < last {
			return fmt.Errorf("workload: trace %q record %d out of order (cycle %d after %d)", t.Name, i, r.Cycle, last)
		}
		last = r.Cycle
		if r.Src == r.Dst || r.Src < 0 || int(r.Src) >= t.Nodes || r.Dst < 0 || int(r.Dst) >= t.Nodes {
			return fmt.Errorf("workload: trace %q record %d endpoints %d->%d invalid", t.Name, i, r.Src, r.Dst)
		}
		if r.DataLen < 1 || r.DataLen > flit.MaxDataLen {
			return fmt.Errorf("workload: trace %q record %d length %d outside [1,%d]", t.Name, i, r.DataLen, flit.MaxDataLen)
		}
	}
	return nil
}

// Duration returns the cycle span of the trace: one past the last
// record's cycle (the loop period when replaying cyclically).
func (t *Trace) Duration() int64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].Cycle + 1
}

// Fingerprint digests the full schedule. The replayer embeds it in
// checkpoints so a resumed service cannot silently continue with a
// different trace than the one the checkpoint was taken under.
func (t *Trace) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", t.Name, t.Nodes, len(t.Records))
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range t.Records {
		put(uint64(r.Cycle))
		put(uint64(r.Src))
		put(uint64(r.Dst))
		put(uint64(r.DataLen))
	}
	return h.Sum64()
}

// TraceSpec carries the parameters shared by every generator: the
// machine size, the cycle span to cover, the per-node message arrival
// probability per cycle at nominal intensity, the message length in
// flits, and the deterministic seed.
type TraceSpec struct {
	Nodes   int
	Cycles  int64
	Rate    float64 // messages per node per cycle at nominal intensity
	MsgLen  int
	Seed    uint64
	Hotspot HotspotSpec
	Burst   BurstTraceSpec
	Diurnal DiurnalSpec
	Storm   StormSpec
}

// HotspotSpec skews destination choice toward a few hot nodes.
type HotspotSpec struct {
	// Fraction of messages aimed at a hot node (0 disables skew).
	Fraction float64
	// HotNodes is how many distinct hot destinations share the skewed
	// traffic; 0 means 1.
	HotNodes int
}

// BurstTraceSpec modulates arrivals with a two-state (calm/burst)
// Markov chain, the arrival-process analogue of the Gilbert-Elliott
// corruption model: long calm stretches at a fraction of the nominal
// rate punctuated by bursts at a multiple of it.
type BurstTraceSpec struct {
	// MeanCalm and MeanBurst are the expected state dwell times in
	// cycles; 0 means 500 and 50.
	MeanCalm  float64
	MeanBurst float64
	// CalmFactor and BurstFactor scale the nominal rate in each state;
	// 0 means 0.5 and 4.
	CalmFactor  float64
	BurstFactor float64
}

// DiurnalSpec modulates arrivals sinusoidally — the load curve of a
// long-running service with a daily cycle, compressed to simulation
// time.
type DiurnalSpec struct {
	// Period is the modulation wavelength in cycles; 0 means the whole
	// trace span.
	Period int64
	// Amplitude in [0,1] scales the swing around the nominal rate; 0
	// means 0.8.
	Amplitude float64
}

// StormSpec drives the permutation-storm generator: traffic follows a
// fixed random permutation (every node sends to exactly one partner —
// the adversarial pattern for adaptive routing), reshuffled
// periodically so the congestion pattern keeps moving.
type StormSpec struct {
	// ReshuffleEvery is the cycles between permutation changes; 0 means
	// 1000.
	ReshuffleEvery int64
}

func (s *TraceSpec) validate(kind string) {
	if s.Nodes < 2 || s.Cycles < 1 || s.MsgLen < 1 || s.Rate < 0 || s.Rate > 1 {
		panic(fmt.Sprintf("workload: %s trace spec nodes=%d cycles=%d rate=%g len=%d",
			kind, s.Nodes, s.Cycles, s.Rate, s.MsgLen))
	}
}

// uniformDst draws a destination for src uniformly from the other nodes.
func uniformDst(r *rng.Source, nodes int, src topology.NodeID) topology.NodeID {
	d := topology.NodeID(r.Intn(nodes - 1))
	if d >= src {
		d++
	}
	return d
}

// GenUniform materializes a plain uniform-random Bernoulli arrival
// stream — the baseline the shaped generators are compared against.
func GenUniform(spec TraceSpec) *Trace {
	spec.validate("uniform")
	r := rng.New(spec.Seed)
	t := &Trace{Name: fmt.Sprintf("uniform(n=%d,rate=%g)", spec.Nodes, spec.Rate), Nodes: spec.Nodes}
	for c := int64(0); c < spec.Cycles; c++ {
		for n := 0; n < spec.Nodes; n++ {
			if r.Bernoulli(spec.Rate) {
				src := topology.NodeID(n)
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: src, Dst: uniformDst(r, spec.Nodes, src), DataLen: spec.MsgLen,
				})
			}
		}
	}
	return t
}

// GenBursty materializes a bursty arrival stream: a global two-state
// calm/burst Markov chain scales every node's arrival probability, so
// load arrives in correlated surges rather than as an i.i.d. trickle.
func GenBursty(spec TraceSpec) *Trace {
	spec.validate("bursty")
	b := spec.Burst
	if b.MeanCalm <= 0 {
		b.MeanCalm = 500
	}
	if b.MeanBurst <= 0 {
		b.MeanBurst = 50
	}
	if b.CalmFactor <= 0 {
		b.CalmFactor = 0.5
	}
	if b.BurstFactor <= 0 {
		b.BurstFactor = 4
	}
	r := rng.New(spec.Seed)
	t := &Trace{
		Name:  fmt.Sprintf("bursty(n=%d,rate=%g,calm=%g,burst=%g)", spec.Nodes, spec.Rate, b.MeanCalm, b.MeanBurst),
		Nodes: spec.Nodes,
	}
	burst := false
	for c := int64(0); c < spec.Cycles; c++ {
		if burst {
			if r.Bernoulli(1 / b.MeanBurst) {
				burst = false
			}
		} else if r.Bernoulli(1 / b.MeanCalm) {
			burst = true
		}
		rate := spec.Rate * b.CalmFactor
		if burst {
			rate = spec.Rate * b.BurstFactor
		}
		if rate > 1 {
			rate = 1
		}
		for n := 0; n < spec.Nodes; n++ {
			if r.Bernoulli(rate) {
				src := topology.NodeID(n)
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: src, Dst: uniformDst(r, spec.Nodes, src), DataLen: spec.MsgLen,
				})
			}
		}
	}
	return t
}

// GenDiurnal materializes a sinusoidally modulated arrival stream:
// rate(c) = Rate * (1 + Amplitude*sin(2πc/Period)) / (1 + Amplitude),
// normalized so the peak never exceeds the nominal rate.
func GenDiurnal(spec TraceSpec) *Trace {
	spec.validate("diurnal")
	d := spec.Diurnal
	if d.Period <= 0 {
		d.Period = spec.Cycles
	}
	if d.Amplitude <= 0 {
		d.Amplitude = 0.8
	}
	r := rng.New(spec.Seed)
	t := &Trace{
		Name:  fmt.Sprintf("diurnal(n=%d,rate=%g,period=%d)", spec.Nodes, spec.Rate, d.Period),
		Nodes: spec.Nodes,
	}
	for c := int64(0); c < spec.Cycles; c++ {
		phase := 2 * math.Pi * float64(c%d.Period) / float64(d.Period)
		rate := spec.Rate * (1 + d.Amplitude*math.Sin(phase)) / (1 + d.Amplitude)
		for n := 0; n < spec.Nodes; n++ {
			if r.Bernoulli(rate) {
				src := topology.NodeID(n)
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: src, Dst: uniformDst(r, spec.Nodes, src), DataLen: spec.MsgLen,
				})
			}
		}
	}
	return t
}

// GenHotspot materializes a destination-skewed stream: a fraction of
// all messages converge on a few hot nodes (chosen deterministically
// from the seed), the classic adversarial load for adaptive routing.
func GenHotspot(spec TraceSpec) *Trace {
	spec.validate("hotspot")
	h := spec.Hotspot
	if h.Fraction <= 0 {
		h.Fraction = 0.3
	}
	if h.HotNodes <= 0 {
		h.HotNodes = 1
	}
	if h.HotNodes > spec.Nodes {
		h.HotNodes = spec.Nodes
	}
	r := rng.New(spec.Seed)
	perm := make([]int, spec.Nodes)
	r.Perm(perm)
	hot := perm[:h.HotNodes]
	t := &Trace{
		Name:  fmt.Sprintf("hotspot(n=%d,rate=%g,frac=%g,hot=%d)", spec.Nodes, spec.Rate, h.Fraction, h.HotNodes),
		Nodes: spec.Nodes,
	}
	for c := int64(0); c < spec.Cycles; c++ {
		for n := 0; n < spec.Nodes; n++ {
			if !r.Bernoulli(spec.Rate) {
				continue
			}
			src := topology.NodeID(n)
			var dst topology.NodeID
			if r.Bernoulli(h.Fraction) {
				dst = topology.NodeID(hot[r.Intn(len(hot))])
				if dst == src {
					dst = uniformDst(r, spec.Nodes, src)
				}
			} else {
				dst = uniformDst(r, spec.Nodes, src)
			}
			t.Records = append(t.Records, TraceRecord{Cycle: c, Src: src, Dst: dst, DataLen: spec.MsgLen})
		}
	}
	return t
}

// GenIncast materializes periodic incast storms: every interval
// (spec.Storm.ReshuffleEvery cycles) a freshly chosen target is
// bombarded by every other node simultaneously (the fan-in collapse
// pattern of reduction and shuffle phases). Between storms the
// background is uniform traffic at the nominal rate.
func GenIncast(spec TraceSpec) *Trace {
	spec.validate("incast")
	period := spec.Storm.ReshuffleEvery
	if period <= 0 {
		period = 1000
	}
	r := rng.New(spec.Seed)
	t := &Trace{
		Name:  fmt.Sprintf("incast(n=%d,rate=%g,period=%d)", spec.Nodes, spec.Rate, period),
		Nodes: spec.Nodes,
	}
	target := 0
	for c := int64(0); c < spec.Cycles; c++ {
		if c%period == 0 {
			target = r.Intn(spec.Nodes)
			for n := 0; n < spec.Nodes; n++ {
				if n == target {
					continue
				}
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: topology.NodeID(n), Dst: topology.NodeID(target), DataLen: spec.MsgLen,
				})
			}
			continue
		}
		for n := 0; n < spec.Nodes; n++ {
			if r.Bernoulli(spec.Rate) {
				src := topology.NodeID(n)
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: src, Dst: uniformDst(r, spec.Nodes, src), DataLen: spec.MsgLen,
				})
			}
		}
	}
	return t
}

// GenPermutationStorm materializes permutation traffic: every node
// sends only to its partner under a random permutation, reshuffled
// every spec.Storm.ReshuffleEvery cycles. Permutations concentrate
// every flow on a single path pair, the stress pattern where adaptive
// routing's choice of output matters most.
func GenPermutationStorm(spec TraceSpec) *Trace {
	spec.validate("permutation-storm")
	every := spec.Storm.ReshuffleEvery
	if every <= 0 {
		every = 1000
	}
	r := rng.New(spec.Seed)
	perm := make([]int, spec.Nodes)
	t := &Trace{
		Name:  fmt.Sprintf("permstorm(n=%d,rate=%g,every=%d)", spec.Nodes, spec.Rate, every),
		Nodes: spec.Nodes,
	}
	for c := int64(0); c < spec.Cycles; c++ {
		if c%every == 0 {
			r.Perm(perm)
		}
		for n := 0; n < spec.Nodes; n++ {
			dst := perm[n]
			if dst == n {
				continue // fixed point: this node sits the interval out
			}
			if r.Bernoulli(spec.Rate) {
				t.Records = append(t.Records, TraceRecord{
					Cycle: c, Src: topology.NodeID(n), Dst: topology.NodeID(dst), DataLen: spec.MsgLen,
				})
			}
		}
	}
	return t
}
