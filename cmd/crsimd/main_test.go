package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"crnet/internal/core"
	"crnet/internal/network"
	"crnet/internal/routing"
	"crnet/internal/sim"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
	"crnet/internal/workload"
)

func testNetConfig() network.Config {
	return network.Config{
		Topo:     topology.NewTorus(4, 2),
		Alg:      routing.MinimalAdaptive{},
		Protocol: core.CR,
		Backoff:  core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		Seed:     2,
		Check:    true,
	}
}

var hashLine = regexp.MustCompile(`stream_hash=([0-9a-f]{16})`)

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, make(chan os.Signal)); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestResumeMatchesUnbroken is the binary-level smoke test of the whole
// subsystem: run to 600 cycles with checkpoints, start again with a
// higher target (restores from the final checkpoint), and the combined
// run's delivery stream hash equals a run that never stopped.
func TestResumeMatchesUnbroken(t *testing.T) {
	base := []string{"-k", "4", "-workload", "hotspot", "-protocol", "fcr",
		"-fault-rate", "5e-4", "-span", "500", "-seed", "11",
		"-batch", "100", "-checkpoint-every", "300", "-sample-every", "50"}

	dir := t.TempDir()
	out1 := runArgs(t, append(base, "-cycles", "600", "-checkpoint-dir", dir)...)
	if !strings.Contains(out1, "reason=final") {
		t.Fatalf("first run wrote no final checkpoint:\n%s", out1)
	}
	out2 := runArgs(t, append(base, "-cycles", "1200", "-checkpoint-dir", dir)...)
	if !strings.Contains(out2, "restored cycle=600") {
		t.Fatalf("second run did not restore:\n%s", out2)
	}

	unbroken := runArgs(t, append(base, "-cycles", "1200", "-checkpoint-dir", t.TempDir())...)
	h2, hu := hashLine.FindStringSubmatch(out2), hashLine.FindStringSubmatch(unbroken)
	if h2 == nil || hu == nil {
		t.Fatalf("missing stream_hash lines:\n%s\n%s", out2, unbroken)
	}
	if h2[1] != hu[1] {
		t.Fatalf("resumed stream hash %s != unbroken %s", h2[1], hu[1])
	}
}

// TestSignalCheckpointsAndExits drives the daemon loop (no cycle
// bound), waits for an interval checkpoint, then delivers a SIGTERM and
// expects a clean exit with a signal checkpoint on disk.
func TestSignalCheckpointsAndExits(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan os.Signal, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-k", "4", "-workload", "bursty", "-seed", "3",
			"-batch", "50", "-checkpoint-dir", dir, "-checkpoint-every", "200"},
			&out, stop)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, ok := snapshot.Latest(dir); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no interval checkpoint appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run after SIGTERM: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reason=signal") {
		t.Fatalf("no signal checkpoint logged:\n%s", out.String())
	}
	if _, _, ok := snapshot.Latest(dir); !ok {
		t.Fatal("no checkpoint on disk after SIGTERM")
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "klein-bottle"},
		{"-protocol", "tcp"},
		{"-workload", "nosuch"},
		{"-k", "0", "-cycles", "1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, make(chan os.Signal)); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestHTTPEndpoints exercises the live observability mux against a
// stepping service.
func TestHTTPEndpoints(t *testing.T) {
	svc, err := sim.NewService(sim.ServiceConfig{
		Net: testNetConfig(),
		Trace: workload.GenUniform(workload.TraceSpec{
			Nodes: 16, Cycles: 300, Rate: 0.05, MsgLen: 8, Seed: 2,
		}),
		Loop:        true,
		SampleEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Step(500); err != nil {
		t.Fatal(err)
	}
	srv := &server{svc: svc}
	mux := srv.mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var st sim.ServiceStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, rec.Body.String())
	}
	if st.Cycle != 500 || st.Delivered == 0 {
		t.Fatalf("/status = %+v, want cycle 500 and deliveries", st)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "injected_flits") {
		t.Fatalf("/metrics missing counters:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/series", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "injected_flits") {
		t.Fatalf("/series = %d:\n%s", rec.Code, rec.Body.String())
	}
}

// TestPprofEndpoints checks that the mux serves the runtime's profiles:
// the index, a named profile, and a CPU profile of the stepping daemon.
func TestPprofEndpoints(t *testing.T) {
	svc, err := sim.NewService(sim.ServiceConfig{
		Net: testNetConfig(),
		Trace: workload.GenUniform(workload.TraceSpec{
			Nodes: 16, Cycles: 300, Rate: 0.05, MsgLen: 8, Seed: 2,
		}),
		Loop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := (&server{svc: svc}).mux()
	for _, c := range []struct{ path, want string }{
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/heap?debug=1", "heap profile"},
		{"/debug/pprof/cmdline", ""},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), c.want) {
			t.Fatalf("%s = %d, want 200 with %q:\n%.300s", c.path, rec.Code, c.want, rec.Body.String())
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			svc.Step(100) //nolint:errcheck — load for the profile only
		}
	}()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/profile?seconds=1", nil))
	<-done
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("/debug/pprof/profile = %d with %d bytes, want a CPU profile", rec.Code, rec.Body.Len())
	}
}

// TestResumeWithHazardDegradeFlags is the binary-level resume pin for
// the availability subsystems: with the load-coupled hazard and the
// degradation controller both enabled by flags, a checkpointed-and-
// restarted run reproduces the unbroken run's delivery stream hash and
// final degradation line exactly.
func TestResumeWithHazardDegradeFlags(t *testing.T) {
	base := []string{"-k", "4", "-workload", "uniform", "-protocol", "fcr",
		"-load", "0.5", "-span", "500", "-seed", "19",
		"-hazard-lambda0", "2e-5", "-hazard-alpha", "5", "-hazard-mttr", "200",
		"-slo-p95", "250", "-slo-window", "128", "-fail-budget", "4",
		"-batch", "100", "-checkpoint-every", "300", "-sample-every", "50"}

	dir := t.TempDir()
	runArgs(t, append(base, "-cycles", "600", "-checkpoint-dir", dir)...)
	out2 := runArgs(t, append(base, "-cycles", "2000", "-checkpoint-dir", dir)...)
	if !strings.Contains(out2, "restored cycle=600") {
		t.Fatalf("second run did not restore:\n%s", out2)
	}
	unbroken := runArgs(t, append(base, "-cycles", "2000", "-checkpoint-dir", t.TempDir())...)

	h2, hu := hashLine.FindStringSubmatch(out2), hashLine.FindStringSubmatch(unbroken)
	if h2 == nil || hu == nil {
		t.Fatalf("missing stream_hash lines:\n%s\n%s", out2, unbroken)
	}
	if h2[1] != hu[1] {
		t.Fatalf("resumed stream hash %s != unbroken %s", h2[1], hu[1])
	}

	degLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "degrade state=") {
				return line
			}
		}
		t.Fatalf("no degrade line:\n%s", out)
		return ""
	}
	if d2, du := degLine(out2), degLine(unbroken); d2 != du {
		t.Fatalf("degradation summary diverged:\n  resumed:  %s\n  unbroken: %s", d2, du)
	}
	if !strings.Contains(degLine(unbroken), "fault_events=") {
		t.Fatal("degrade line missing fault_events")
	}
}
