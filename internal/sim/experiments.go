package sim

import (
	"fmt"
	"io"
	"time"

	"crnet/internal/core"
	"crnet/internal/harness"
	"crnet/internal/network"
	"crnet/internal/router"
	"crnet/internal/routing"
	"crnet/internal/stats"
	"crnet/internal/topology"
)

// Scale sets the size/duration knobs shared by every experiment, so the
// full paper-scale runs and quick CI-sized runs use identical drivers.
type Scale struct {
	// K is the torus radix; experiments run on a KxK torus.
	K int
	// MsgLen is the default message length in flits.
	MsgLen int
	// Warmup and Measure are the window lengths in cycles.
	Warmup  int64
	Measure int64
	// Loads are the offered-load points (fraction of capacity) swept by
	// the latency/throughput experiments.
	Loads []float64
	// Seed drives all stochastic processes.
	Seed uint64

	// Parallel bounds the harness worker pool every experiment's
	// simulations run on: 0 means runtime.GOMAXPROCS(0), 1 runs them one
	// at a time. Results are byte-identical for every value.
	Parallel int
	// Shards is the network.Config.Shards the network constructors
	// below hand out: 0 or 1 runs the single node range inline on the
	// point's goroutine, N > 1 splits each simulated network into N
	// ranges stepped by N workers. Like Parallel, results are
	// byte-identical for every value, so Shards only changes wall-clock.
	Shards int
	// BufOrg is the router buffer organization the network constructors
	// below hand out; a driver that sets an organization on the config
	// it gets back — the E31/E32 axis — keeps its own. Unlike Shards
	// this DOES change results: it is the crbench -buforg axis for
	// re-running experiments under DAMQ or credit-shared buffers.
	BufOrg router.BufferOrg
	// Progress, when non-nil, receives per-sweep progress lines
	// (points done/total, ETA) — normally os.Stderr so stdout stays
	// comparable between runs.
	Progress io.Writer
	// Collect, when non-nil, receives each sweep's per-point wall-clock
	// (milliseconds, grid order) for JSON artifacts.
	Collect func(label string, pointMS []float64)
	// PointTimeout bounds one sweep point's wall-clock; 0 means
	// unbounded. A point that exceeds it is cancelled and recorded as a
	// sweep error; the rest of the sweep completes.
	PointTimeout time.Duration
	// CollectErrors, when non-nil, receives each sweep's failed points
	// (panics, watchdog violations, timeouts) for the JSON artifact's
	// errors section. Only called for sweeps that had failures.
	CollectErrors func(label string, errs []harness.PointError)
	// CollectSeries, when non-nil, receives the sampled metric
	// time-series of points that ran with the per-cycle sampler enabled
	// (Point.SampleEvery > 0), in grid order, for the JSON artifact's
	// time_series section and -timeseries CSV export. Only called for
	// sweeps that sampled.
	CollectSeries func(label string, series []harness.PointSeries)
}

// Quick is the CI-sized scale: an 8x8 torus and short windows. Shapes
// (who wins, where curves diverge) match Full; absolute numbers are
// noisier.
var Quick = Scale{
	K:       8,
	MsgLen:  16,
	Warmup:  1500,
	Measure: 6000,
	Loads:   []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9},
	Seed:    1,
}

// Full is the paper-scale setting: a 16x16 torus (256 nodes) as in the
// paper's simulations, with long measurement windows.
var Full = Scale{
	K:       16,
	MsgLen:  16,
	Warmup:  5000,
	Measure: 20000,
	Loads:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	Seed:    1,
}

func (s Scale) torus() *topology.Grid { return topology.NewTorus(s.K, 2) }

// netOn returns the network every experiment config starts from: 2-flit
// buffers, exponential backoff, and the Scale-level Seed, Shards and
// BufOrg. It is the one place those three reach a network.Config.
func (s Scale) netOn(topo topology.Topology, alg routing.Algorithm, proto core.Protocol) network.Config {
	return network.Config{
		Topo:     topo,
		Alg:      alg,
		Protocol: proto,
		BufDepth: 2,
		BufOrg:   s.BufOrg,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     s.Seed,
		Shards:   s.Shards,
	}
}

// crNet returns the canonical CR network: fully adaptive minimal
// routing, no virtual channels, 2-flit buffers, exponential backoff.
func (s Scale) crNet() network.Config {
	c := s.netOn(s.torus(), routing.MinimalAdaptive{}, core.CR)
	c.VCs = 1
	return c
}

// fcrNet returns the canonical FCR network.
func (s Scale) fcrNet() network.Config {
	c := s.crNet()
	c.Protocol = core.FCR
	return c
}

// dorNet returns the paper's DOR baseline: dimension-order routing with
// the 2-VC dateline discipline and the given FIFO depth per VC.
func (s Scale) dorNet(lanes, bufDepth int) network.Config {
	c := s.netOn(s.torus(), routing.DOR{Lanes: lanes}, core.Plain)
	c.BufDepth = bufDepth
	return c
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	// Paper names the table/figure being reproduced.
	Paper string
	Run   func(Scale) *stats.Table
}

// Experiments lists every reproduced figure/table, in paper order.
var Experiments = []Experiment{
	{"E1", "CR latency and throughput vs offered load", "Sec. 6.1 base curves", E1LatencyVsLoad},
	{"E2", "CR kill/retry rates vs offered load", "Sec. 6.1 recovery cost", E2KillRate},
	{"E3", "Static vs dynamic retransmission gaps", "Fig. 11", E3RetransmissionGap},
	{"E4", "Potential deadlock situations via Duato escape usage", "Sec. 6 PDS estimate", E4PDSEstimate},
	{"E5", "CR vs DOR across buffer depths", "Fig. 14(a),(b)", E5BufferDepth},
	{"E6", "CR vs DOR across virtual channels (equal buffer budget)", "Fig. 14(c),(d)", E6VirtualChannels},
	{"E7", "Interface bandwidth: injection/ejection channels", "Fig. 14(e),(f)", E7InterfaceBandwidth},
	{"E8", "FCR under transient fault rates", "Sec. 6.2", E8TransientFaults},
	{"E9", "FCR under permanent link faults", "Sec. 6.2", E9PermanentFaults},
	{"E10", "Timeout sensitivity and false kills", "Sec. 7 timeout discussion", E10TimeoutSensitivity},
	{"E11", "Hardware complexity model", "Sec. 5, Figs. 7-8", E11HardwareCost},
	{"E12", "Traffic patterns: adaptivity payoff", "Sec. 6.1 non-uniform claim", E12TrafficPatterns},
	{"E13", "Padding overhead vs message length", "Sec. 7 overhead discussion", E13PaddingOverhead},
	{"E14", "Protocol properties under stress", "Sec. 3-4 claims", E14Properties},
	{"E15", "Source-based vs path-wide timeout schemes", "Sec. 7/8 ablation", E15TimeoutSchemes},
	{"E16", "Turn-model (west-first) vs DOR vs CR on the mesh", "Related work [19]", E16TurnModel},
	{"E17", "Latency distribution tails", "Sec. 7 variance discussion [32]", E17LatencyDistribution},
	{"E18", "Bimodal message-length traffic", "Companion study [32]", E18BimodalTraffic},
	{"E19", "Application workloads: stencil, all-to-all, RPC", "Intro motivation (software layers)", E19Applications},
	{"E20", "Adaptive output-selection policy ablation", "Implementation choice (Sec. 5)", E20SelectionPolicy},
	{"E21", "FCR padding-margin ablation (bound is load-bearing)", "Sec. 4 padding rule", E21PaddingMargin},
	{"E22", "Bursty (Gilbert-Elliott) vs i.i.d. corruption at equal rate", "Sec. 6.2 extension", E22BurstyFaults},
	{"E23", "Fail-then-repair: degradation and recovery", "Sec. 6.2 extension", E23FailRepair},
	{"E24", "Chaos soak with invariant watchdog", "Sec. 3-4 claims under chaos", E24ChaosSoak},
	{"E25", "Latency decomposition: queue/retry/flight/drain phases", "Sec. 6.1 latency anatomy", E25LatencyDecomposition},
	{"E26", "Buffer occupancy time-series around the saturation knee", "Sec. 6.1 congestion dynamics", E26OccupancySeries},
	{"E27", "Trace-driven workload replay latency", "Service extension (Sec. 6.1 workloads)", E27TraceReplay},
	{"E28", "Kill-resume equivalence: checkpoint/restore vs unbroken run", "Checkpoint subsystem validation", E28KillResume},
	{"E29", "Availability vs load under load-coupled failures", "Sec. 6.2 extension (reliability SLO)", E29AvailabilityCurves},
	{"E30", "Degradation soak: controller on vs off", "Sec. 6.2 extension (graceful degradation)", E30DegradationSoak},
	{"E31", "Buffer organizations: static FIFO vs DAMQ vs credit-shared", "Sec. 5 buffer design extension", E31BufferOrgs},
	{"E32", "Analytical latency bound vs observed residence per organization", "Sec. 4 analysis extension", E32LatencyBound},
}

// ChaosExperiments lists the chaos/robustness subset selected by
// crbench's -chaos flag.
var ChaosExperiments = []string{"E22", "E23", "E24", "E29", "E30"}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// addLoadRow is the common row shape for latency/throughput sweeps.
func addLoadRow(t *stats.Table, scheme string, load float64, m Metrics) {
	sat := ""
	if m.Saturated() {
		sat = "saturated"
	}
	t.AddRow(scheme, load, m.Throughput, m.AvgLatency, m.P95Latency, sat)
}

func loadColumns() []string {
	return []string{"scheme", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "p95", "note"}
}

// propertyTable starts a PASS/FAIL property table (E14, E24, E30);
// checkRow appends its rows and stats.Table.Failures reads them back.
func propertyTable(title string) *stats.Table {
	return stats.NewTable(title, "property", "value", "expectation", "pass")
}

func checkRow(t *stats.Table, name string, value interface{}, ok bool, expectation string) {
	t.AddRow(name, fmt.Sprint(value), expectation, stats.Verdict(ok))
}

// E1LatencyVsLoad reproduces the paper's base CR performance curves:
// average latency and accepted throughput against offered load, uniform
// traffic, 16-flit messages on the torus.
func E1LatencyVsLoad(s Scale) *stats.Table {
	t := stats.NewTable("E1: CR latency/throughput vs offered load ("+s.torus().Name()+")", loadColumns()...)
	pts := s.loadGrid("CR", "uniform", s.crNet())
	for i, m := range s.sweep("E1", pts) {
		addLoadRow(t, pts[i].Series, pts[i].Load, m)
	}
	return t
}

// E2KillRate reports the deadlock-recovery cost: kills and retries per
// delivered message, and the padding overhead, across load.
func E2KillRate(s Scale) *stats.Table {
	t := stats.NewTable("E2: CR kill/retry behavior vs load",
		"offered(frac)", "kills/msg", "retries/msg", "pad_overhead", "avg_latency")
	pts := s.loadGrid("CR", "uniform", s.crNet())
	for i, m := range s.sweep("E2", pts) {
		t.AddRow(pts[i].Load, m.KillsPerMsg, m.RetriesPerMsg, m.PadOverhead, m.AvgLatency)
	}
	return t
}

// E3RetransmissionGap reproduces Fig. 11: static retransmission gaps of
// several sizes against the dynamic (exponential backoff) scheme, with
// the kill timeout fixed at 32 cycles as in the paper.
func E3RetransmissionGap(s Scale) *stats.Table {
	t := stats.NewTable("E3 (Fig. 11): retransmission gap schemes, timeout=32",
		"scheme", "offered(frac)", "thpt(flits/node/cyc)", "avg_latency", "kills/msg")
	schemes := []struct {
		name string
		b    core.Backoff
	}{
		{"static-8", core.Backoff{Kind: core.BackoffStatic, Gap: 8}},
		{"static-16", core.Backoff{Kind: core.BackoffStatic, Gap: 16}},
		{"static-32", core.Backoff{Kind: core.BackoffStatic, Gap: 32}},
		{"static-64", core.Backoff{Kind: core.BackoffStatic, Gap: 64}},
		{"static-128", core.Backoff{Kind: core.BackoffStatic, Gap: 128}},
		{"dynamic-exp", core.Backoff{Kind: core.BackoffExponential, Gap: 8}},
	}
	var pts []Point
	for _, sc := range schemes {
		net := s.crNet()
		net.Timeout = 32
		net.Backoff = sc.b
		pts = append(pts, s.loadGrid(sc.name, "uniform", net)...)
	}
	for i, m := range s.sweep("E3", pts) {
		t.AddRow(pts[i].Series, pts[i].Load, m.Throughput, m.AvgLatency, m.KillsPerMsg)
	}
	return t
}

// E4PDSEstimate reproduces the paper's potential-deadlock-situation
// estimate: a Duato-routed network counts how often blocked headers are
// forced onto the dimension-order escape channels; CR's kill rate at the
// same load is shown beside it (CR recovers instead of avoiding).
func E4PDSEstimate(s Scale) *stats.Table {
	t := stats.NewTable("E4: potential deadlock situations (Duato escape usage) vs CR kills",
		"offered(frac)", "duato_pds/msg", "cr_kills/msg", "duato_thpt", "cr_thpt")
	duato := s.netOn(s.torus(), routing.Duato{AdaptiveVCs: 1}, core.Plain)
	pts := append(s.loadGrid("Duato", "uniform", duato), s.loadGrid("CR", "uniform", s.crNet())...)
	ms := s.sweep("E4", pts)
	for i, load := range s.Loads {
		md, mc := ms[i], ms[len(s.Loads)+i]
		t.AddRow(load, md.PDSPerMsg, mc.KillsPerMsg, md.Throughput, mc.Throughput)
	}
	return t
}

// E5BufferDepth reproduces Fig. 14(a),(b): DOR with progressively deeper
// FIFO buffers against CR with fixed 2-flit buffers. The paper's
// observation: CR with 2-flit buffers matches a DOR network with far
// deeper FIFOs.
func E5BufferDepth(s Scale) *stats.Table {
	t := stats.NewTable("E5 (Fig. 14a,b): buffer depth, CR depth-2 vs DOR depth sweep", loadColumns()...)
	pts := s.loadGrid("CR(d=2)", "uniform", s.crNet())
	for _, depth := range []int{2, 4, 8, 16} {
		pts = append(pts, s.loadGrid(fmt.Sprintf("DOR(d=%d)", depth), "uniform", s.dorNet(1, depth))...)
	}
	for i, m := range s.sweep("E5", pts) {
		addLoadRow(t, pts[i].Series, pts[i].Load, m)
	}
	return t
}

// E6VirtualChannels reproduces Fig. 14(c),(d): virtual-channel sweeps.
// CR fixes 2-flit buffers per VC and varies VC count; DOR receives an
// equal total buffer budget per port (more lanes, shallower FIFOs).
func E6VirtualChannels(s Scale) *stats.Table {
	t := stats.NewTable("E6 (Fig. 14c,d): virtual channels at equal buffer budget", loadColumns()...)
	const budget = 16 // flits per physical port for DOR
	var pts []Point
	for _, vcs := range []int{1, 2, 4, 8} {
		net := s.crNet()
		net.VCs = vcs
		pts = append(pts, s.loadGrid(fmt.Sprintf("CR(vc=%d)", vcs), "uniform", net)...)
	}
	for _, lanes := range []int{1, 2, 4} {
		depth := budget / (2 * lanes) // 2 dateline classes per lane
		pts = append(pts, s.loadGrid(fmt.Sprintf("DOR(vc=%d,d=%d)", 2*lanes, depth), "uniform", s.dorNet(lanes, depth))...)
	}
	for i, m := range s.sweep("E6", pts) {
		addLoadRow(t, pts[i].Series, pts[i].Load, m)
	}
	return t
}

// E7InterfaceBandwidth reproduces Fig. 14(e),(f): the effect of multiple
// injection/ejection channels per node. A single sink channel throttles
// peak throughput; widening the interface lets CR's adaptivity show.
func E7InterfaceBandwidth(s Scale) *stats.Table {
	t := stats.NewTable("E7 (Fig. 14e,f): interface channels per node", loadColumns()...)
	var pts []Point
	for _, ch := range []int{1, 2, 4} {
		cr := s.crNet()
		cr.InjectionChannels, cr.EjectionChannels = ch, ch
		dor := s.dorNet(1, 8)
		dor.InjectionChannels, dor.EjectionChannels = ch, ch
		pts = append(pts, s.loadGrid(fmt.Sprintf("CR(ch=%d)", ch), "uniform", cr)...)
		pts = append(pts, s.loadGrid(fmt.Sprintf("DOR(ch=%d)", ch), "uniform", dor)...)
	}
	for i, m := range s.sweep("E7", pts) {
		addLoadRow(t, pts[i].Series, pts[i].Load, m)
	}
	return t
}
