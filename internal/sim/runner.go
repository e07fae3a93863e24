// Package sim provides the experiment harness: it wires a network
// configuration to a synthetic workload, runs warmup and measurement
// windows, and reduces the run to the metrics the paper's figures plot
// (latency vs offered load, throughput, kill/retry rates, PDS counts,
// padding overhead). The experiment drivers that regenerate each of the
// paper's figures and tables live in this package too and are shared by
// cmd/crbench and the repository's benchmarks.
package sim

import (
	"fmt"

	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/obs"
	"crnet/internal/router"
	"crnet/internal/stats"
	"crnet/internal/topology"
	"crnet/internal/traffic"
)

// Config describes one simulation run.
type Config struct {
	// Net is the network configuration (topology, routing, protocol...).
	Net network.Config
	// Pattern names the traffic pattern (see traffic.ByName).
	Pattern string
	// Load is the offered load as a fraction of the topology's uniform
	// saturation capacity.
	Load float64
	// MsgLen is the message length in flits (head included).
	MsgLen int
	// Lengths optionally overrides MsgLen with a message-length model
	// (e.g. traffic.Bimodal); MsgLen is ignored when set.
	Lengths traffic.LengthModel
	// WarmupCycles are simulated but not measured; 0 means 2000.
	WarmupCycles int64
	// MeasureCycles is the measurement window; 0 means 10000. A drain of
	// up to drainFactor x MeasureCycles follows it, so messages born in
	// the window can finish.
	MeasureCycles int64
	// Seed drives traffic generation (fault seeds live in Net).
	Seed uint64
	// Watchdog, when set, installs an invariant watchdog on the network;
	// the run aborts with the violation the moment one is detected
	// instead of silently producing garbage metrics.
	Watchdog *invariant.Config
	// Cancel, when set, aborts the run (with an error) shortly after the
	// channel closes. The crash-proof sweep harness uses it to reclaim
	// points that exceed their wall-clock budget.
	Cancel <-chan struct{}
	// Degrade, when set, installs the graceful-degradation controller:
	// offered messages pass through its deterministic admission gate
	// (shed messages are counted, not submitted) and delivered latency
	// plus fault density drive its hysteresis state machine.
	Degrade *DegradeConfig

	// SampleEvery, when positive, turns on the per-cycle metrics sampler:
	// every SampleEvery cycles the observability registry (per-VC buffer
	// occupancy, in-flight worms, link utilization, kill/eject counters)
	// is snapshotted into a ring buffer exported as Metrics.Series.
	SampleEvery int64
	// SampleCap bounds the ring buffer; once full, the oldest samples are
	// evicted so the series covers the tail of the run. 0 means 512.
	SampleCap int
}

// drainFactor bounds the post-measurement drain, in measurement windows.
const drainFactor = 4

func (c *Config) fillDefaults() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Lengths == nil {
		if c.MsgLen < 1 {
			return fmt.Errorf("sim: MsgLen = %d", c.MsgLen)
		}
		c.Lengths = traffic.FixedLength(c.MsgLen)
	}
	if c.Load < 0 {
		return fmt.Errorf("sim: Load = %v", c.Load)
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 10000
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 0 {
		return fmt.Errorf("sim: WarmupCycles = %d, MeasureCycles = %d", c.WarmupCycles, c.MeasureCycles)
	}
	return nil
}

// Metrics is the reduction of one run. Event rates cover the measurement
// window; latency covers messages created in the window (delivered
// within the bounded drain).
type Metrics struct {
	// OfferedLoad is the generated load in flits/node/cycle.
	OfferedLoad float64
	// OfferedFrac is OfferedLoad as a fraction of uniform capacity.
	OfferedFrac float64
	// Throughput is delivered data flits/node/cycle in the window.
	Throughput float64
	// ThroughputFrac is Throughput as a fraction of uniform capacity.
	ThroughputFrac float64

	// Delivered counts window messages delivered; Censored counts those
	// still undelivered at the drain bound (grows past saturation).
	Delivered int64
	Censored  int64

	// Latency statistics in cycles, message creation to delivery.
	AvgLatency float64
	P50Latency int64
	P95Latency int64
	P99Latency int64
	MaxLatency int64

	// MaxNetResidence is the worst observed in-network residence of a
	// delivered window message: injection of the delivered attempt to
	// tail drained (the flight + drain phases). Queueing and retries are
	// excluded, so this is the quantity the analytical per-flow bound
	// (internal/bound, experiment E32) speaks about.
	MaxNetResidence int64

	// Phase latency decomposition: mean cycles per delivered window
	// message spent in each phase. The four phases partition AvgLatency
	// exactly (see obs.PhaseBreakdown): Queue is creation to first
	// injection, Retry first injection to the delivered attempt's
	// injection, Flight injection to header arrival, Drain header arrival
	// to tail drained. BackoffLatency is the retransmission-gap portion
	// of RetryLatency.
	QueueLatency   float64
	RetryLatency   float64
	FlightLatency  float64
	DrainLatency   float64
	BackoffLatency float64

	// Protocol event rates, normalized per delivered window message.
	KillsPerMsg   float64
	RetriesPerMsg float64
	FKillsPerMsg  float64
	PDSPerMsg     float64
	// PadOverhead is pad flits per data flit injected in the window.
	PadOverhead float64

	// Integrity and liveness (whole run).
	DeliveredCorrupt int64 // DataOK == false window deliveries (zero under FCR)
	FailedMessages   int64 // abandoned after MaxAttempts
	OrderErrors      int64
	LateFKills       int64
	TransientFaults  int64
	Misroutes        int64
	StaleSignals     int64

	// Watchdog results (zero unless Config.Watchdog was set).
	Violations    int64 // invariant violations recorded
	WatchdogScans int64 // audits performed

	// FaultEventsApplied counts failure events (timeline + hazard) the
	// network applied over the whole run.
	FaultEventsApplied int64
	// Degradation-controller results (zero unless Config.Degrade was
	// set). ShedMessages counts offers the controller refused during
	// the measurement window (they join Censored in the availability
	// denominator); DegradeFinal is the controller's final state name.
	ShedMessages       int64
	DegradeTransitions int64
	BreachedWindows    int64
	DegradeFinal       string

	// Phases holds the full per-phase latency histograms behind the mean
	// decomposition above (percentiles, sums, clamp counters).
	Phases *obs.PhaseBreakdown `json:"-"`
	// Series is the sampled counter/gauge time-series; nil unless
	// Config.SampleEvery was positive.
	Series *obs.Series `json:"-"`
}

// Saturated reports whether the run is past the saturation point, using
// the censoring ratio (undelivered window messages).
func (m Metrics) Saturated() bool {
	total := m.Delivered + m.Censored
	return total > 0 && float64(m.Censored) > 0.02*float64(total)
}

// snapshot captures the monotone counters used for window deltas.
type snapshot struct {
	kills, fkills, retries   int64
	dataFlits, padFlits      int64
	recvDataFlits            int64
	pds, misroutes, staleSig int64
}

func takeSnapshot(net *network.Network) snapshot {
	is := net.InjectorStats()
	rs := net.RouterStats()
	return snapshot{
		kills:         is.Kills,
		fkills:        is.FKills,
		retries:       is.Retries,
		dataFlits:     is.DataFlits,
		padFlits:      is.PadFlits,
		recvDataFlits: net.ReceiverStats().DataFlits,
		pds:           rs.PDS,
		misroutes:     rs.Misroutes,
		staleSig:      rs.StaleSignals,
	}
}

// buildSampler wires the observability registry to net — every metric a
// gauge polled over counters and occupancy the network itself keeps and
// checkpoints — and returns the registry alongside a sampler ticking it
// every `every` cycles. The registry is returned separately so
// long-running services can expose it as a live metrics endpoint.
func buildSampler(net *network.Network, every int64, sampleCap int) (*obs.Registry, *obs.Sampler) {
	reg := obs.NewRegistry()

	// Gauges are polled in registration order, so the first of a group
	// takes the network-wide scan and the rest read its cached result:
	// the flit ledger, the routers' summed counters (kill_signals and
	// fkill_signals are the tear-downs routers processed, locally
	// initiated ones included and stale ones not), the per-VC occupancy.
	var led network.FlitLedger
	reg.Gauge("injected_flits", func() float64 {
		led = net.Ledger()
		return float64(led.Injected)
	})
	reg.Gauge("ejected_flits", func() float64 { return float64(led.Ejected) })
	reg.Gauge("corrupt_flits", func() float64 { return float64(net.TransientFaults()) })
	var rs router.Stats
	reg.Gauge("kill_signals", func() float64 {
		rs = net.RouterStats()
		return float64(rs.KillsFwd)
	})
	reg.Gauge("fkill_signals", func() float64 { return float64(rs.KillsBwd) })
	var occ []int64
	reg.Gauge("occupancy_total", func() float64 {
		occ = net.OccupancyPerVCInto(occ)
		var t int64
		for _, v := range occ {
			t += v
		}
		return float64(t)
	})
	for vc := 0; vc < net.VCs(); vc++ {
		vc := vc
		reg.Gauge(fmt.Sprintf("occupancy_vc%d", vc), func() float64 { return float64(occ[vc]) })
	}
	reg.Gauge("injection_occupancy", func() float64 { return float64(net.InjectionOccupancy()) })
	reg.Gauge("inflight_worms", func() float64 { return float64(net.PendingWorms()) })
	reg.Gauge("inflight_flits", func() float64 { return float64(led.InFlight) })
	reg.Gauge("queued_messages", func() float64 { return float64(net.QueuedMessages()) })
	reg.Gauge("source_kills", func() float64 { return float64(net.InjectorStats().Kills) })
	links := float64(net.LinkCount())
	reg.Gauge("link_utilization", func() float64 {
		if c := net.Cycle(); c > 0 && links > 0 {
			return float64(net.LinkFlits()) / (links * float64(c))
		}
		return 0
	})

	cap := sampleCap
	if cap <= 0 {
		cap = 512
	}
	return reg, obs.NewSampler(reg, every, cap)
}

// Run executes one simulation and returns its metrics. A non-nil error
// alongside non-zero metrics means the run aborted mid-flight — a
// watchdog violation or a cancellation — and the metrics cover only the
// portion that ran.
func Run(cfg Config) (Metrics, error) {
	m, _, err := RunWithNetwork(cfg)
	return m, err
}

// RunWithNetwork is Run but also returns the simulated network for
// post-run inspection (link utilization, per-node statistics).
func RunWithNetwork(cfg Config) (Metrics, *network.Network, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Metrics{}, nil, err
	}
	net := network.New(cfg.Net)
	var dog *invariant.Watchdog
	if cfg.Watchdog != nil {
		dog = invariant.New(*cfg.Watchdog)
	}
	topo := net.Topology()
	pattern, err := traffic.ByName(cfg.Pattern, topo)
	if err != nil {
		return Metrics{}, nil, err
	}
	gen := traffic.NewGeneratorLengths(topo, pattern, cfg.Load, cfg.Lengths, cfg.Seed)

	var deg *Degrader
	if cfg.Degrade != nil {
		deg = NewDegrader(*cfg.Degrade)
	}

	hist := stats.NewHistogram(16, 4096)
	phases := obs.NewPhaseBreakdown(16, 4096)
	var lat stats.Welford
	var s0, s1 snapshot

	// The watchdog and the sampler attach through the kernel's single
	// hook seam: Monitor fires after each cycle's phases, Observer after
	// the clock advances (so polled gauges see the post-step state).
	var sampler *obs.Sampler
	var hooks network.Hooks
	if dog != nil {
		hooks.Monitor = dog
	}
	if cfg.SampleEvery > 0 {
		_, sampler = buildSampler(net, cfg.SampleEvery, cfg.SampleCap)
		hooks.Observer = sampler.Tick
	}
	net.SetHooks(hooks)

	measureStart := cfg.WarmupCycles
	measureEnd := cfg.WarmupCycles + cfg.MeasureCycles
	drainEnd := measureEnd + drainFactor*cfg.MeasureCycles

	// A window message is one created in [measureStart, measureEnd);
	// pending counts those submitted and not yet delivered.
	var pending, delivered, corrupt, shed int64
	var maxNetResidence int64
	var abortErr error
loop:
	for cycle := int64(0); cycle < drainEnd; cycle++ {
		switch cycle {
		case measureStart:
			s0 = takeSnapshot(net)
		case measureEnd:
			s1 = takeSnapshot(net)
		}
		if cycle < measureEnd {
			for node := 0; node < topo.Nodes(); node++ {
				if m, ok := gen.Tick(topology.NodeID(node), cycle); ok {
					if deg != nil && !deg.Admit() {
						if cycle >= measureStart {
							shed++
						}
						continue
					}
					if cycle >= measureStart {
						pending++
					}
					net.SubmitMessage(m)
				}
			}
		}
		net.Step()
		for _, d := range net.DrainDeliveries() {
			if deg != nil {
				deg.Observe(d.Time - d.Stamps.Create)
			}
			created := d.Stamps.Create
			if created < measureStart || created >= measureEnd {
				continue
			}
			pending--
			delivered++
			l := d.Time - created
			lat.Add(float64(l))
			hist.Add(l)
			if nr := d.Time - d.Stamps.AttemptInject; nr > maxNetResidence {
				maxNetResidence = nr
			}
			phases.Add(d.Stamps.FirstInject-created,
				d.Stamps.AttemptInject-d.Stamps.FirstInject,
				d.HeadArrived-d.Stamps.AttemptInject,
				d.Time-d.HeadArrived,
				d.Stamps.Backoff)
			if !d.DataOK {
				corrupt++
			}
		}
		if deg != nil {
			deg.EndCycle(net.Cycle(), net.FaultEventsApplied(), net.Health() == nil)
		}
		if err := net.Health(); err != nil {
			abortErr = err
			if cycle < measureEnd {
				s1 = takeSnapshot(net) // partial window: whatever happened so far
				if cycle < measureStart {
					s0 = s1
				}
			}
			break loop
		}
		if cfg.Cancel != nil && cycle&1023 == 0 {
			select {
			case <-cfg.Cancel:
				abortErr = fmt.Errorf("sim: run cancelled at cycle %d", cycle)
				break loop
			default:
			}
		}
		if cycle >= measureEnd && pending == 0 {
			break
		}
	}

	nodes := float64(topo.Nodes())
	capacity := traffic.CapacityFlitsPerNode(topo)
	measure := float64(cfg.MeasureCycles)

	m := Metrics{
		OfferedLoad:      cfg.Load * capacity,
		OfferedFrac:      cfg.Load,
		Throughput:       float64(s1.recvDataFlits-s0.recvDataFlits) / nodes / measure,
		Delivered:        delivered,
		Censored:         pending,
		AvgLatency:       lat.Mean(),
		P50Latency:       hist.Percentile(0.50),
		P95Latency:       hist.Percentile(0.95),
		P99Latency:       hist.Percentile(0.99),
		MaxLatency:       hist.Max(),
		MaxNetResidence:  maxNetResidence,
		QueueLatency:     phases.Queue.Mean(),
		RetryLatency:     phases.Retry.Mean(),
		FlightLatency:    phases.Flight.Mean(),
		DrainLatency:     phases.Drain.Mean(),
		BackoffLatency:   phases.Backoff.Mean(),
		Phases:           phases,
		DeliveredCorrupt: corrupt,
		FailedMessages:   net.InjectorStats().Failed,
		OrderErrors:      net.ReceiverStats().OrderErrors,
		LateFKills:       net.InjectorStats().LateFKills,
		TransientFaults:  net.TransientFaults(),
		Misroutes:        s1.misroutes - s0.misroutes,
		StaleSignals:     s1.staleSig - s0.staleSig,
	}
	m.ThroughputFrac = m.Throughput / capacity
	if delivered > 0 {
		m.KillsPerMsg = float64(s1.kills-s0.kills) / float64(delivered)
		m.RetriesPerMsg = float64(s1.retries-s0.retries) / float64(delivered)
		m.FKillsPerMsg = float64(s1.fkills-s0.fkills) / float64(delivered)
		m.PDSPerMsg = float64(s1.pds-s0.pds) / float64(delivered)
	}
	if d := s1.dataFlits - s0.dataFlits; d > 0 {
		m.PadOverhead = float64(s1.padFlits-s0.padFlits) / float64(d)
	}
	if dog != nil {
		m.Violations = int64(len(dog.Violations()))
		m.WatchdogScans = dog.Scans()
	}
	m.FaultEventsApplied = net.FaultEventsApplied()
	if deg != nil {
		m.ShedMessages = shed
		m.DegradeTransitions = deg.Transitions()
		m.BreachedWindows = deg.BreachedWindows()
		m.DegradeFinal = deg.State().String()
	}
	if sampler != nil {
		m.Series = sampler.Series()
	}
	if err := phases.CheckSum(); err != nil && abortErr == nil {
		abortErr = err
	}
	return m, net, abortErr
}
