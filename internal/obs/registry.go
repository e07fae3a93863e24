// Package obs is the observability layer: a metrics registry of named
// gauges, a per-cycle sampler that snapshots them into a bounded ring
// buffer, the time-series container those samples export to (CSV for
// plotting, JSON for the harness artifact), and the per-phase latency
// decomposition used to explain *where* end-to-end message latency
// comes from (queueing at the source, retransmission backoff, header
// flight, tail drain) instead of quoting one number.
//
// The package is deliberately free of simulator dependencies: every
// metric is a closure polled at sample time over state its subject
// already keeps (and checkpoints), so the registry holds no state of
// its own and the same registry/sampler machinery can observe any
// subsystem.
package obs

import (
	"fmt"
	"slices"
)

// Gauge is a measurement polled at sample time: an instantaneous level
// or the current value of a cumulative count its subject keeps
// (consumers diff adjacent samples for rates).
type Gauge func() float64

// Registry is an ordered collection of named metrics. Registration
// order is sample-column order, so a registry fully determines the
// schema of the series a sampler produces from it.
type Registry struct {
	names  []string
	gauges []Gauge
	// seen is a duplicate-registration guard only: it is looked up and
	// written, never ranged (crlint detmap audit), so all iteration order
	// comes from the slices and the schema stays deterministic.
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name string, g Gauge) {
	if name == "" {
		panic("obs: metric with empty name")
	}
	if g == nil {
		panic(fmt.Sprintf("obs: nil gauge %q", name))
	}
	if r.seen[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.seen[name] = true
	r.names = append(r.names, name)
	r.gauges = append(r.gauges, g)
}

// Names returns the metric names in registration (column) order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Sample polls every metric in registration order into a fresh slice.
func (r *Registry) Sample() []float64 { return r.sampleInto(nil) }

// sampleInto polls every metric in registration order into buf's
// backing array, growing it only when it is too short.
func (r *Registry) sampleInto(buf []float64) []float64 {
	buf = slices.Grow(buf[:0], len(r.gauges))
	for _, g := range r.gauges {
		buf = append(buf, g())
	}
	return buf
}
