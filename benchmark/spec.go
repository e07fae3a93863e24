package main

// The benchmark's declared surface: workloads and metrics, by name.
// BENCHMARK.json at the repository root repeats these lists for the
// driver; TestDeclaredNamesMatchBenchmarkJSON keeps the two in step.

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the quantities a user of the simulator waits for or pays
// for. All are host-side except success_share, which is simulated and
// repeats exactly for a given seed.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"node_cycles_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"ckpt_save_ms", "ms", lower, 0.25},
	{"ckpt_restore_ms", "ms", lower, 0.25},
	{"ckpt_bytes", "bytes", lower, 0.10},
	{"success_share", "share", higher, 0.05},
}

// perLayer attributes host time and simulated work to one module each;
// the name prefix is the module under internal/. Metrics prefixed
// model. and core. are simulated quantities and repeat exactly.
var perLayer = []metricSpec{
	{Name: "harness.point_ms_p50", Unit: "ms", Better: lower},
	{Name: "harness.point_ms_max", Unit: "ms", Better: lower},
	{Name: "harness.worker_busy_share", Unit: "share", Better: higher},
	{Name: "harness.point_errors", Unit: "count", Better: lower},

	{Name: "sim.point_ns_per_node_cycle_p50", Unit: "ns", Better: lower},
	{Name: "sim.point_ns_per_node_cycle_max", Unit: "ns", Better: lower},
	{Name: "sim.service_us_per_cycle_p50", Unit: "us", Better: lower},
	{Name: "sim.service_us_per_cycle_p99", Unit: "us", Better: lower},
	{Name: "sim.service_save_ms", Unit: "ms", Better: lower},
	{Name: "sim.service_restore_ms", Unit: "ms", Better: lower},

	{Name: "network.new_ms", Unit: "ms", Better: lower},
	{Name: "network.warmup_us_per_cycle", Unit: "us", Better: lower},
	{Name: "network.step_us_p50", Unit: "us", Better: lower},
	{Name: "network.step_us_p99", Unit: "us", Better: lower},
	{Name: "network.step_busy_share", Unit: "share", Better: lower},
	{Name: "network.ns_per_node_cycle", Unit: "ns", Better: lower},
	{Name: "network.ns_per_flit_hop", Unit: "ns", Better: lower},
	{Name: "network.submit_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "network.drain_busy_share", Unit: "share", Better: lower},
	{Name: "network.allocs_per_kcycle", Unit: "count", Better: lower},
	{Name: "network.cpu_per_wall", Unit: "ratio", Better: higher},
	{Name: "network.savestate_ms", Unit: "ms", Better: lower},
	{Name: "network.loadstate_ms", Unit: "ms", Better: lower},

	{Name: "router.fifo_ns_per_flit", Unit: "ns", Better: lower},
	{Name: "router.damq_ns_per_flit", Unit: "ns", Better: lower},
	{Name: "router.shared_ns_per_flit", Unit: "ns", Better: lower},
	{Name: "router.new_us", Unit: "us", Better: lower},

	{Name: "routing.ns_per_route", Unit: "ns", Better: lower},

	{Name: "traffic.ns_per_tick", Unit: "ns", Better: lower},
	{Name: "traffic.tick_busy_share", Unit: "share", Better: lower},

	{Name: "workload.gen_trace_ms", Unit: "ms", Better: lower},
	{Name: "workload.trace_records", Unit: "count", Better: higher},
	{Name: "workload.replay_ns_per_record", Unit: "ns", Better: lower},

	{Name: "topology.build_ms", Unit: "ms", Better: lower},

	{Name: "invariant.audit_us_p50", Unit: "us", Better: lower},
	{Name: "invariant.busy_share", Unit: "share", Better: lower},
	{Name: "invariant.scans", Unit: "count", Better: higher},
	{Name: "invariant.violations", Unit: "count", Better: lower},

	{Name: "obs.sample_us", Unit: "us", Better: lower},
	{Name: "obs.samples_taken", Unit: "count", Better: higher},

	{Name: "snapshot.encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "snapshot.decode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "snapshot.writefile_ms", Unit: "ms", Better: lower},
	{Name: "snapshot.readfile_ms", Unit: "ms", Better: lower},

	{Name: "faults.events_applied", Unit: "count", Better: lower},
	{Name: "faults.hazard_down_max", Unit: "count", Better: lower},

	{Name: "core.kills_per_msg", Unit: "ratio", Better: lower},
	{Name: "core.retries_per_msg", Unit: "ratio", Better: lower},
	{Name: "core.pad_overhead", Unit: "ratio", Better: lower},
	{Name: "core.delivered_per_attempt", Unit: "ratio", Better: higher},
	{Name: "core.abandoned", Unit: "count", Better: lower},
	{Name: "core.shed", Unit: "count", Better: lower},

	{Name: "model.throughput_flits_node_cycle", Unit: "flits/node/cycle", Better: higher},
	{Name: "model.avg_latency_cycles", Unit: "cycles", Better: lower},
	{Name: "model.p99_latency_cycles", Unit: "cycles", Better: lower},
	{Name: "model.link_util", Unit: "share", Better: higher},
	{Name: "model.delivered_share", Unit: "share", Better: higher},
	{Name: "model.fingerprint", Unit: "hash", Better: higher},

	{Name: "go.gc_count", Unit: "count", Better: lower},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: lower},
	{Name: "go.heap_live_mb", Unit: "MB", Better: lower},

	{Name: "trace.wall_s", Unit: "s", Better: lower},
	{Name: "trace.overhead_share", Unit: "share", Better: lower},
	{Name: "trace.unattributed_share", Unit: "share", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
}

// exactPrefixes name the simulated per-layer metrics: a change meant only
// to speed the simulator up must leave every one of them identical.
var exactPrefixes = []string{"model.", "core."}

// exactEndToEnd are the end-to-end metrics that are simulated rather
// than timed, and so repeat exactly for a given seed.
var exactEndToEnd = []string{"ckpt_bytes", "success_share"}

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run)
}

var workloads = []workloadSpec{
	{"sweep8", "30-point crbench-style grid on the 8x8 torus through harness.SweepSafe: per-point construction, sim.Run bookkeeping, drain tails and sweep imbalance dominate, not the kernel.", runSweep8},
	{"sat16", "one saturated 16x16 canonical CR network on the serial kernel: the cycle kernel and router hot path do nearly all the work on a cache-resident working set.", runSat16},
	{"sat64-shard2", "64x64 CR with 2 VCs just past its knee on the 2-shard kernel: 16x the working set, the VC-allocation path, fork/join, merge barriers and serial prepass phases.", runSat64},
	{"sparse512", "512x512 torus with traffic only inside 64 seeded 8x8 neighbourhoods: active-set worklists, lazy construction and the O(network) link array and checkpoint carry the cost.", runSparse512},
	{"daemon16", "sim.Service on 16x16 FCR under a looping bursty trace with faults, hazard, degradation controller, watchdog, sampler and periodic checkpoints: the crsimd path, below the knee.", runDaemon16},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
