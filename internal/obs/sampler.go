package obs

import "fmt"

// Sample is one snapshot of every registered metric at a cycle.
type Sample struct {
	Cycle  int64
	Values []float64
}

// Sampler snapshots a registry on a fixed cadence into a bounded ring
// buffer, so a long run keeps the most recent window of samples at a
// fixed memory cost. Drive it with Tick once per cycle.
type Sampler struct {
	reg   *Registry //cr:nosnap wiring to the live registry, re-established by the owner after restore
	every int64
	ring  []Sample
	next  int  // ring slot for the next sample
	full  bool // the ring has wrapped at least once
}

// NewSampler returns a sampler reading reg every `every` cycles,
// retaining the most recent cap samples. It panics on a non-positive
// cadence or capacity.
func NewSampler(reg *Registry, every int64, cap int) *Sampler {
	if every < 1 || cap < 1 {
		panic(fmt.Sprintf("obs: invalid sampler shape every=%d cap=%d", every, cap))
	}
	return &Sampler{reg: reg, every: every, ring: make([]Sample, 0, cap)}
}

// Tick observes the clock; on cadence boundaries (cycle % every == 0)
// it takes a snapshot. Once the ring is full the evicted slot's values
// are overwritten in place, so steady-state sampling does not allocate.
func (s *Sampler) Tick(cycle int64) {
	if cycle%s.every != 0 {
		return
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, Sample{Cycle: cycle, Values: s.reg.Sample()})
		return
	}
	sm := &s.ring[s.next]
	sm.Cycle, sm.Values = cycle, s.reg.sampleInto(sm.Values)
	s.next = (s.next + 1) % cap(s.ring)
	s.full = true
}

// Series copies the retained samples out in chronological order,
// together with the registry's column names and the cadence.
func (s *Sampler) Series() *Series {
	n := len(s.ring)
	out := &Series{
		Every:   s.every,
		Columns: s.reg.Names(),
		Samples: make([]Sample, 0, n),
	}
	start := 0
	if s.full {
		start = s.next
	}
	for i := 0; i < n; i++ {
		sm := s.ring[(start+i)%n]
		vals := append([]float64(nil), sm.Values...)
		out.Samples = append(out.Samples, Sample{Cycle: sm.Cycle, Values: vals})
	}
	return out
}
