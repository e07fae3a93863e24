package sim

import (
	"fmt"

	"crnet/internal/core"
	"crnet/internal/flit"
	"crnet/internal/network"
	"crnet/internal/obs"
	snap "crnet/internal/snapshot"
	"crnet/internal/stats"
	"crnet/internal/workload"
)

// serviceStateVersion versions the Service's snapshot payload layout
// (the bytes between the checkpoint container header and its CRC).
const serviceStateVersion = 3

// FNV-1a 64-bit parameters, used for the delivery stream hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ServiceConfig describes a long-running trace-driven simulation.
type ServiceConfig struct {
	// Net configures the simulated network.
	Net network.Config
	// Trace is the workload replayed into the network. It must validate
	// and its node count must match the topology.
	Trace *workload.Trace
	// Loop repeats the trace forever (each epoch shifted by the trace
	// duration); otherwise injection runs dry after the last record.
	Loop bool
	// SampleEvery, when positive, attaches the observability registry
	// and samples it every SampleEvery cycles (see Registry/Series).
	SampleEvery int64
	// SampleCap bounds the sample ring (default 512).
	SampleCap int
	// Degrade, when set, installs the graceful-degradation controller:
	// trace submissions pass through its deterministic admission gate
	// and its state/counters surface via Status and the registry.
	Degrade *DegradeConfig
}

// Service is a checkpointable, continuously stepping simulation: a
// network fed by a trace replayer, with cumulative delivery statistics
// and an optional live metrics registry. It is the engine behind
// cmd/crsimd — everything wall-clock- or transport-flavored (signals,
// HTTP, checkpoint files) lives in the binary; the Service itself is
// deterministic and snapshot-exact: Save at cycle K, Restore into a
// fresh Service, and the continuation is byte-identical to one that
// never stopped (pinned by TestServiceResumeByteIdentical).
type Service struct {
	cfg     ServiceConfig
	net     *network.Network
	rep     *workload.Replayer
	reg     *obs.Registry // nil unless SampleEvery > 0
	sampler *obs.Sampler  // nil unless SampleEvery > 0
	deg     *Degrader     // nil unless cfg.Degrade is set
	// sub is the replayer's submission target: the network itself, or
	// the degradation gate in front of it. Built once so the per-tick
	// interface value does not allocate.
	sub workload.Submitter

	delivered int64
	corrupt   int64
	lat       stats.Welford
	hist      *stats.Histogram
	// streamHash folds every delivery record (ids, timestamps, payload
	// verdict) into one FNV-1a value: two runs delivered identical
	// streams iff their hashes agree, which is how the kill-resume
	// equivalence experiment (E28) and crsimd's /status expose
	// determinism without shipping full logs.
	streamHash uint64

	saveLen int // size of the last Save's payload, which the next one reserves up front
}

// NewService validates the configuration and builds the service at
// cycle zero.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: service requires a trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("sim: service trace: %w", err)
	}
	if cfg.Net.Topo == nil {
		return nil, fmt.Errorf("sim: service requires a topology")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if got, want := cfg.Trace.Nodes, cfg.Net.Topo.Nodes(); got != want {
		return nil, fmt.Errorf("sim: trace %q has %d nodes, topology %q has %d",
			cfg.Trace.Name, got, cfg.Net.Topo.Name(), want)
	}
	s := &Service{
		cfg:        cfg,
		net:        network.New(cfg.Net),
		rep:        workload.NewReplayer(cfg.Trace, cfg.Loop),
		hist:       stats.NewHistogram(16, 4096),
		streamHash: fnvOffset64,
	}
	if cfg.SampleEvery > 0 {
		s.reg, s.sampler = buildSampler(s.net, cfg.SampleEvery, cfg.SampleCap)
		s.net.SetHooks(network.Hooks{Observer: s.sampler.Tick})
	}
	s.sub = s.net
	if cfg.Degrade != nil {
		s.deg = NewDegrader(*cfg.Degrade)
		s.sub = &gatedSubmitter{net: s.net, deg: s.deg}
		if s.reg != nil {
			s.reg.Gauge("degrade_state", func() float64 { return float64(s.deg.State()) })
			s.reg.Gauge("shed_messages", func() float64 { return float64(s.deg.Shed()) })
		}
	}
	return s, nil
}

// gatedSubmitter interposes the degradation controller between the
// trace replayer and the network: refused messages are counted as shed
// and never reach an injector.
type gatedSubmitter struct {
	net *network.Network
	deg *Degrader
}

func (g *gatedSubmitter) SubmitMessage(m flit.Message) {
	if g.deg.Admit() {
		g.net.SubmitMessage(m)
	}
}

// Step advances the simulation n cycles: replays due trace records,
// steps the network, drains deliveries into the cumulative statistics.
// It stops early with an error if the network latches unhealthy.
func (s *Service) Step(n int64) error {
	for i := int64(0); i < n; i++ {
		s.rep.Tick(s.sub, s.net.Cycle())
		s.net.Step()
		for _, d := range s.net.DrainDeliveries() {
			s.observe(d)
		}
		if s.deg != nil {
			s.deg.EndCycle(s.net.Cycle(), s.net.FaultEventsApplied(), s.net.Health() == nil)
		}
		if err := s.net.Health(); err != nil {
			return fmt.Errorf("sim: service unhealthy at cycle %d: %w", s.net.Cycle(), err)
		}
	}
	return nil
}

// observe folds one delivery into the cumulative statistics and the
// stream hash.
func (s *Service) observe(d core.Delivery) {
	s.delivered++
	if !d.DataOK {
		s.corrupt++
	}
	latency := d.Time - d.Stamps.Create
	s.lat.Add(float64(latency))
	s.hist.Add(latency)
	if s.deg != nil {
		s.deg.Observe(latency)
	}

	h := s.streamHash
	h = fnvMix(h, uint64(d.Msg))
	h = fnvMix(h, uint64(d.Worm))
	h = fnvMix(h, uint64(d.Src))
	h = fnvMix(h, uint64(d.DataLen))
	h = fnvMix(h, uint64(d.Time))
	if d.DataOK {
		h = fnvMix(h, 1)
	} else {
		h = fnvMix(h, 0)
	}
	h = fnvMix(h, uint64(d.HeadArrived))
	h = fnvMix(h, uint64(d.Stamps.Create))
	h = fnvMix(h, uint64(d.Stamps.FirstInject))
	h = fnvMix(h, uint64(d.Stamps.AttemptInject))
	h = fnvMix(h, uint64(d.Stamps.Backoff))
	s.streamHash = h
}

// fnvMix folds the eight bytes of v (little-endian) into an FNV-1a
// running hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Save serializes the complete service state — network, replay
// position, cumulative statistics, stream hash, sampler — as a payload
// for snapshot.Encode/WriteFile. The returned slice is freshly
// allocated, once: the encoder reserves the previous payload's size and
// an eighth more.
func (s *Service) Save() []byte {
	var e snap.Encoder
	e.Grow(s.saveLen + s.saveLen/8)
	e.U32(serviceStateVersion)
	s.net.SaveState(&e)
	s.rep.SaveState(&e)
	e.Varint(s.delivered)
	e.Varint(s.corrupt)
	s.lat.SaveState(&e)
	s.hist.SaveState(&e)
	e.U64(s.streamHash)
	e.Bool(s.sampler != nil)
	if s.sampler != nil {
		s.sampler.SaveState(&e)
	}
	e.Bool(s.deg != nil)
	if s.deg != nil {
		s.deg.SaveState(&e)
	}
	s.saveLen = e.Len()
	return e.Bytes()
}

// Restore loads a payload written by Save into this service. The
// service must be configured identically to the saver: the network
// config fingerprint, trace fingerprint, loop mode and sampler
// presence are all checked, and a mismatch is refused before the
// corresponding component is touched. Payload integrity is the
// checkpoint container's job (CRC) — a decode error here means a
// version or configuration mismatch, and the service must be discarded
// (components restore in sequence, so a late failure can leave earlier
// ones already updated).
func (s *Service) Restore(payload []byte) error {
	d := snap.NewDecoder(payload)
	if v := d.U32(); d.Err() == nil && v != serviceStateVersion {
		return fmt.Errorf("sim: service snapshot version %d, want %d", v, serviceStateVersion)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.net.LoadState(d); err != nil {
		return fmt.Errorf("sim: restore network: %w", err)
	}
	if err := s.rep.LoadState(d); err != nil {
		return fmt.Errorf("sim: restore replayer: %w", err)
	}
	s.delivered = d.Varint()
	s.corrupt = d.Varint()
	if err := s.lat.LoadState(d); err != nil {
		return fmt.Errorf("sim: restore latency stats: %w", err)
	}
	if err := s.hist.LoadState(d); err != nil {
		return fmt.Errorf("sim: restore latency histogram: %w", err)
	}
	s.streamHash = d.U64()
	hasSampler := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasSampler != (s.sampler != nil) {
		return fmt.Errorf("sim: snapshot sampler=%t, service sampler=%t", hasSampler, s.sampler != nil)
	}
	if s.sampler != nil {
		if err := s.sampler.LoadState(d); err != nil {
			return fmt.Errorf("sim: restore sampler: %w", err)
		}
	}
	hasDeg := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasDeg != (s.deg != nil) {
		return fmt.Errorf("sim: snapshot degrader=%t, service degrader=%t", hasDeg, s.deg != nil)
	}
	if s.deg != nil {
		if err := s.deg.LoadState(d); err != nil {
			return fmt.Errorf("sim: restore degrader: %w", err)
		}
	}
	return d.Finish()
}

// Cycle returns the current simulation cycle.
func (s *Service) Cycle() int64 { return s.net.Cycle() }

// Network exposes the simulated network (read-mostly: tests and status
// endpoints).
func (s *Service) Network() *network.Network { return s.net }

// Done reports whether a non-looping trace has been fully submitted
// and the network has gone quiet (no queued, in-flight or undrained
// work) — the natural stopping point for finite replays.
func (s *Service) Done() bool {
	return s.rep.Done() && s.net.QueuedMessages() == 0 && s.net.PendingWorms() == 0
}

// Registry returns the live metrics registry, or nil when sampling is
// off.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Series returns the sampled metric time-series, or nil when sampling
// is off.
func (s *Service) Series() *obs.Series {
	if s.sampler == nil {
		return nil
	}
	return s.sampler.Series()
}

// StreamHash returns the FNV-1a hash of the delivery stream so far.
func (s *Service) StreamHash() uint64 { return s.streamHash }

// ServiceStatus is a point-in-time summary of a running service,
// JSON-shaped for crsimd's /status endpoint.
type ServiceStatus struct {
	Cycle         int64   `json:"cycle"`
	Trace         string  `json:"trace"`
	Loop          bool    `json:"loop"`
	Done          bool    `json:"done"`
	Submitted     int64   `json:"submitted"`
	Delivered     int64   `json:"delivered"`
	Corrupt       int64   `json:"corrupt"`
	Queued        int     `json:"queued_messages"`
	InFlightWorms int     `json:"inflight_worms"`
	InFlightFlits int64   `json:"inflight_flits"`
	AvgLatency    float64 `json:"avg_latency"`
	P50Latency    int64   `json:"p50_latency"`
	P95Latency    int64   `json:"p95_latency"`
	P99Latency    int64   `json:"p99_latency"`
	MaxLatency    int64   `json:"max_latency"`
	Retries       int64   `json:"retries"`
	Kills         int64   `json:"kills"`
	StreamHash    string  `json:"stream_hash"`
	Health        string  `json:"health,omitempty"`

	// Degradation and availability. Degrade is the controller state name
	// ("healthy"/"degraded"/"shedding"; empty when no controller is
	// configured); Availability is delivered-intact over all finally
	// disposed messages (delivered + shed + abandoned), 1 when nothing
	// has been disposed yet.
	Degrade         string  `json:"degrade,omitempty"`
	Shed            int64   `json:"shed_messages"`
	BreachedWindows int64   `json:"breached_windows"`
	FaultEvents     int64   `json:"fault_events"`
	HazardDown      int     `json:"hazard_down"`
	Availability    float64 `json:"availability"`
}

// Status summarizes the service's current state.
func (s *Service) Status() ServiceStatus {
	is := s.net.InjectorStats()
	st := ServiceStatus{
		Cycle:         s.net.Cycle(),
		Trace:         s.cfg.Trace.Name,
		Loop:          s.cfg.Loop,
		Done:          s.Done(),
		Submitted:     s.rep.Submitted(),
		Delivered:     s.delivered,
		Corrupt:       s.corrupt,
		Queued:        s.net.QueuedMessages(),
		InFlightWorms: s.net.PendingWorms(),
		InFlightFlits: s.net.InFlightFlits(),
		AvgLatency:    s.lat.Mean(),
		P50Latency:    s.hist.Percentile(0.50),
		P95Latency:    s.hist.Percentile(0.95),
		P99Latency:    s.hist.Percentile(0.99),
		MaxLatency:    s.hist.Max(),
		Retries:       is.Retries,
		Kills:         is.Kills,
		StreamHash:    fmt.Sprintf("%016x", s.streamHash),
		FaultEvents:   s.net.FaultEventsApplied(),
		HazardDown:    s.net.HazardDown(),
	}
	if err := s.net.Health(); err != nil {
		st.Health = err.Error()
	}
	if s.deg != nil {
		st.Degrade = s.deg.State().String()
		st.Shed = s.deg.Shed()
		st.BreachedWindows = s.deg.BreachedWindows()
	}
	st.Availability = availability(s.delivered, s.corrupt, st.Shed, is.Failed)
	return st
}

// availability is the served-traffic SLO ratio: messages delivered with
// intact payloads over every message with a final disposition —
// delivered, shed by the controller, or abandoned by its source. It is
// 1 while nothing has been disposed.
func availability(delivered, corrupt, shed, failed int64) float64 {
	total := delivered + shed + failed
	if total <= 0 {
		return 1
	}
	return float64(delivered-corrupt) / float64(total)
}
