package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/harness"
	"crnet/internal/invariant"
	"crnet/internal/network"
	"crnet/internal/sim"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/traffic"
	"crnet/internal/workload"
)

// daemon16 is the crsimd path: a sim.Service stepped in batches with
// periodic checkpoints, everything a long-running deployment turns on.

const (
	daemonBatch      = 256    // cycles per Service.Step call, as crsimd's -batch
	daemonCkptEvery  = 10240  // cycles between checkpoints
	daemonWatchEvery = 64     // watchdog scan period
	daemonSample     = 100    // sampler period
	daemonLoad       = 0.05   // nominal offered load; FCR's padding triples it on the links
	daemonTraceSpan  = 131072 // cycles of trace, looped: ~1200 bursts, so seeds offer alike
)

// timedMonitor wraps the invariant watchdog so the traced run can time
// each audit from the benchmark's side of the network.Monitor seam.
type timedMonitor struct {
	dog     *invariant.Watchdog
	timed   bool
	auditNS []int32
}

func (m *timedMonitor) AfterStep(n *network.Network) error {
	if !m.timed || n.Cycle()%daemonWatchEvery != 0 {
		return m.dog.AfterStep(n)
	}
	start := time.Now()
	err := m.dog.AfterStep(n)
	m.auditNS = append(m.auditNS, int32(time.Since(start)))
	return err
}

// daemon is one configured service with its watchdog.
type daemon struct {
	svc   *sim.Service
	mon   *timedMonitor
	trace *workload.Trace
	k     int
	seed  uint64
}

func (d *daemon) config() sim.ServiceConfig {
	topo := topology.NewTorus(d.k, 2)
	net := crConfig(topo, 1, d.seed)
	net.Protocol = core.FCR
	net.MisrouteAfter, net.MaxDetours = 2, 4
	net.TransientRate = 1e-4
	// Links fail faster the hotter they run and are repaired after about
	// 1500 cycles: a handful are down at any time, and with the SLO below
	// the controller spends nearly every window healthy and sheds a
	// percent or two of the offered messages.
	net.Hazard = &faults.HazardSpec{
		LinkLambda0: 2e-7,
		Alpha:       6,
		LinkMTTR:    1500,
		Seed:        harness.PointSeed(d.seed, seedHazard),
	}
	return sim.ServiceConfig{
		Net:         net,
		Trace:       d.trace,
		Loop:        true,
		SampleEvery: daemonSample,
		Degrade:     &sim.DegradeConfig{LatencySLO: 800, FailBudget: 4},
	}
}

func (d *daemon) save() []byte { return d.svc.Save() }
func (d *daemon) cycle() int64 { return d.svc.Cycle() }
func (d *daemon) fresh() (func([]byte) error, func() []byte) {
	svc, err := sim.NewService(d.config())
	if err != nil {
		return func([]byte) error { return err }, nil
	}
	return svc.Restore, svc.Save
}

// daemonCounters are the cumulative service statistics differenced
// across the timed region.
type daemonCounters struct {
	counters
	st sim.ServiceStatus
}

func (d *daemon) counters() daemonCounters {
	return daemonCounters{counters: readCounters(d.svc.Network()), st: d.svc.Status()}
}

func runDaemon16(r *run) {
	k, warmup := 16, int64(2048)
	if r.opt.mini {
		k, warmup = 8, 256
	}
	d := setup(r, 3, func(span int) *daemon {
		d := &daemon{k: k, seed: r.opt.seed}
		var topo *topology.Grid
		r.set("topology.build_ms", ms(r.span("topology.build", span, func(int) {
			topo = topology.NewTorus(k, 2)
		})))
		r.set("workload.gen_trace_ms", ms(r.span("workload.gen_trace", span, func(int) {
			spec := workload.TraceFor(topo, daemonLoad, msgLen, daemonTraceSpan,
				harness.PointSeed(r.opt.seed, seedTraffic), traffic.CapacityFlitsPerNode(topo))
			spec.Burst = workload.BurstTraceSpec{MeanCalm: 100, MeanBurst: 10}
			d.trace = workload.GenBursty(spec)
		})))
		r.set("workload.trace_records", float64(len(d.trace.Records)))
		r.set("network.new_ms", ms(r.span("sim.newservice", span, func(int) {
			svc, err := sim.NewService(d.config())
			r.checkErr("NewService", err)
			d.svc = svc
		})))
		if d.svc == nil {
			return d
		}
		d.mon = &timedMonitor{dog: invariant.New(invariant.Config{CheckEvery: daemonWatchEvery})}
		d.svc.Network().SetMonitor(d.mon)
		warm := r.span("warmup", span, func(int) {
			r.checkErr("warm-up", d.svc.Step(warmup))
		})
		r.set("network.warmup_us_per_cycle", ratio(float64(warm)/1e3, float64(warmup)))
		return d
	})
	if d.svc == nil {
		return
	}
	svc, net := d.svc, d.svc.Network()
	nodes := float64(k * k)
	cycles := r.scaled(24576, 1024) / daemonBatch * daemonBatch
	ckptEvery := int64(daemonCkptEvery)
	if r.opt.mini {
		ckptEvery = 512
	}
	d.mon.timed = r.opt.traced

	var batchNS []int32
	var writeMS []float64
	var lastPayload []byte
	lastPath := ""
	hazardDownMax := 0
	before := d.counters()
	startCycle := svc.Cycle()
	reg := r.timedRegion(func(span int) float64 {
		sinceCkpt := int64(0)
		for done := int64(0); done < cycles; done += daemonBatch {
			var err error
			if r.opt.traced {
				start := time.Now()
				err = svc.Step(daemonBatch)
				end := time.Now()
				r.tr.add("sim.service.step", span, start, end, daemonBatch)
				batchNS = append(batchNS, int32(end.Sub(start)))
			} else {
				err = svc.Step(daemonBatch)
			}
			if err != nil {
				r.checkErr("service step", err)
				break
			}
			if down := net.HazardDown(); down > hazardDownMax {
				hazardDownMax = down
			}
			if sinceCkpt += daemonBatch; sinceCkpt >= ckptEvery {
				sinceCkpt = 0
				os.Remove(lastPath) // keep only the latest, as a rotating deployment would
				lastPath = filepath.Join(r.opt.outDir, "daemon16."+snapshot.FileName(svc.Cycle()))
				r.span("sim.service.save", span, func(int) { lastPayload = svc.Save() })
				writeMS = append(writeMS, ms(r.span("snapshot.writefile", span, func(int) {
					r.checkErr("write checkpoint", snapshot.WriteFile(lastPath, svc.Cycle(), lastPayload))
				})))
			}
		}
		// The restart path: a fresh service attaches to the last
		// checkpoint on disk.
		if lastPath != "" {
			var payload []byte
			r.span("snapshot.readfile", span, func(int) {
				var err error
				_, payload, err = snapshot.ReadFile(lastPath)
				r.checkErr("read checkpoint", err)
			})
			load, resave := d.fresh()
			r.span("sim.service.restore", span, func(int) { r.checkErr("restore from file", load(payload)) })
			if resave != nil && len(r.failures) == 0 {
				r.check(bytes.Equal(resave(), lastPayload), "service restored from file re-saves differently")
			}
			os.Remove(lastPath)
		}
		return nodes * float64(svc.Cycle()-startCycle)
	})
	after := d.counters()
	simulated := float64(svc.Cycle() - startCycle)
	r.tr.clockReads += 2 * int64(len(batchNS)+len(d.mon.auditNS))

	delivered := after.st.Delivered - before.st.Delivered
	corrupt := after.st.Corrupt - before.st.Corrupt
	shed := after.st.Shed - before.st.Shed
	abandoned := after.inj.Failed - before.inj.Failed
	r.attempted = delivered + shed + abandoned
	r.wrong = corrupt
	r.refused = shed + abandoned

	del := float64(delivered)
	r.setCounterMetrics(net, before.counters, after.counters, del, simulated)
	r.set("core.shed", float64(shed))
	r.set("model.throughput_flits_node_cycle", ratio(del*msgLen, nodes*simulated))
	r.set("model.avg_latency_cycles", after.st.AvgLatency)
	r.set("model.p99_latency_cycles", float64(after.st.P99Latency))
	r.set("model.delivered_share", ratio(del, float64(after.st.Submitted-before.st.Submitted)))
	r.set("model.fingerprint", fold32(svc.StreamHash()))
	failures, _ := net.HazardCounts()
	r.set("faults.events_applied", float64(after.st.FaultEvents-before.st.FaultEvents))
	r.set("faults.hazard_down_max", float64(hazardDownMax))
	r.set("invariant.scans", float64(d.mon.dog.Scans()))
	r.set("invariant.violations", float64(len(d.mon.dog.Violations())))
	r.set("obs.samples_taken", float64((svc.Cycle()-startCycle)/daemonSample))
	r.set("network.ns_per_node_cycle", ratio(reg.Wall*1e9, nodes*simulated))
	r.set("network.allocs_per_kcycle", ratio(float64(reg.Mallocs), simulated/1000))
	if r.opt.traced {
		perCycle := make([]int32, len(batchNS))
		for i, ns := range batchNS {
			perCycle[i] = ns / daemonBatch
		}
		r.set("sim.service_us_per_cycle_p50", nsQuantileUS(perCycle, 0.50))
		r.set("sim.service_us_per_cycle_p99", nsQuantileUS(perCycle, 0.99))
		r.set("invariant.audit_us_p50", nsQuantileUS(d.mon.auditNS, 0.50))
		r.set("invariant.busy_share", ratio(sumNS(d.mon.auditNS), reg.Wall*1e9))
		r.set("snapshot.writefile_ms", median(writeMS))
		sample := r.span("obs.sample", -1, func(int) {
			for i := 0; i < 100; i++ {
				svc.Registry().Sample()
			}
		})
		r.set("obs.sample_us", float64(sample)/1e3/100)
	}

	save, restore := r.checkpoint(d)
	r.set("sim.service_save_ms", save)
	r.set("sim.service_restore_ms", restore)

	r.check(net.Health() == nil, "service network unhealthy: %v", net.Health())
	r.checkErr("flit ledger", net.Ledger().Check())
	r.check(len(d.mon.dog.Violations()) == 0, "%d watchdog violations", len(d.mon.dog.Violations()))
	r.check(corrupt == 0, "%d corrupt deliveries under FCR", corrupt)
	r.check(after.inj.LateFKills == 0, "%d late FKILLs", after.inj.LateFKills)
	if rs := net.ReceiverStats(); rs.OrderErrors != 0 {
		r.check(false, "%d order errors", rs.OrderErrors)
		r.wrong += rs.OrderErrors
	}
	if !r.opt.mini {
		r.check(failures > 0, "daemon16: the hazard process never failed a link")
		r.check(after.st.Availability >= 0.9, "daemon16 availability %.3f below 0.9", after.st.Availability)
		lu := r.m["model.link_util"]
		r.check(lu >= 0.05 && lu <= 0.35, "daemon16 link utilization %.3f outside [0.05, 0.35]", lu)
	}
}
