package network

import (
	"bytes"
	"errors"
	"testing"

	"crnet/internal/faults"
	"crnet/internal/snapshot"
)

// hazardCfg is snapCfg plus the load-coupled failure process, tuned so
// a few-thousand-cycle run sees both hazard failures and repairs.
func hazardCfg() Config {
	cfg := snapCfg()
	cfg.Hazard = &faults.HazardSpec{
		LinkLambda0: 2e-5,
		NodeLambda0: 2e-6,
		Alpha:       4,
		LinkMTTR:    200,
		NodeMTTR:    200,
		EvalEvery:   32,
		Seed:        21,
	}
	return cfg
}

// TestResumeWithHazardByteIdentical extends the resume pin to the
// load-coupled failure process: checkpoint mid-run with hazard-downed
// entities and live thinning streams, restore into a fresh network, and
// the continuation must match an unbroken run byte for byte. The name
// matches the `make snapshot-pin` filter.
func TestResumeWithHazardByteIdentical(t *testing.T) {
	const K, M = 1000, 4000

	ref := New(hazardCfg())
	var refLog []string
	snapRun(ref, M, &refLog)
	var refFinal snapshot.Encoder
	ref.SaveState(&refFinal)

	fails, repairs := ref.HazardCounts()
	if fails == 0 || repairs == 0 {
		t.Fatalf("hazard inert over %d cycles (failures=%d repairs=%d); test is vacuous", M, fails, repairs)
	}

	first := New(hazardCfg())
	var log []string
	snapRun(first, K, &log)
	var ckpt snapshot.Encoder
	first.SaveState(&ckpt)

	resumed := New(hazardCfg())
	if err := resumed.LoadState(snapshot.NewDecoder(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	snapRun(resumed, M, &log)
	var resumedFinal snapshot.Encoder
	resumed.SaveState(&resumedFinal)

	if len(log) != len(refLog) {
		t.Fatalf("resumed run delivered %d messages, unbroken %d", len(log), len(refLog))
	}
	for i := range refLog {
		if log[i] != refLog[i] {
			t.Fatalf("delivery %d diverged:\n  unbroken: %s\n  resumed:  %s", i, refLog[i], log[i])
		}
	}
	if !bytes.Equal(refFinal.Bytes(), resumedFinal.Bytes()) {
		t.Fatal("final states differ after hazard resume")
	}
	rf, rr := resumed.HazardCounts()
	if rf != fails || rr != repairs {
		t.Fatalf("hazard counters diverged: resumed %d/%d, unbroken %d/%d", rf, rr, fails, repairs)
	}
}

// TestHazardNetworkDeterminism: two networks from the same config see
// the identical composite fault process.
func TestHazardNetworkDeterminism(t *testing.T) {
	const M = 3000
	a, b := New(hazardCfg()), New(hazardCfg())
	var logA, logB []string
	snapRun(a, M, &logA)
	snapRun(b, M, &logB)
	var sa, sb snapshot.Encoder
	a.SaveState(&sa)
	b.SaveState(&sb)
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("identical configs diverged under hazard")
	}
	if a.FaultEventsApplied() == 0 {
		t.Fatal("no fault events applied; test is vacuous")
	}
}

// TestHazardFingerprintCoversSpec: differing hazard specs must not be
// checkpoint-interchangeable.
func TestHazardFingerprintCoversSpec(t *testing.T) {
	plain := New(snapCfg())
	hz := New(hazardCfg())
	if plain.ConfigFingerprint() == hz.ConfigFingerprint() {
		t.Fatal("fingerprint ignores the hazard spec")
	}
	other := hazardCfg()
	other.Hazard.Alpha++
	if New(other).ConfigFingerprint() == hz.ConfigFingerprint() {
		t.Fatal("fingerprint ignores hazard parameters")
	}
}

// stuckMonitor latches the network unhealthy at a fixed cycle.
type stuckMonitor struct{ at int64 }

func (m stuckMonitor) AfterStep(n *Network) error {
	if n.Cycle() >= m.at {
		return errors.New("synthetic violation for latch tests")
	}
	return nil
}

func latchedNetwork(t *testing.T) *Network {
	t.Helper()
	n := New(snapCfg())
	n.SetMonitor(stuckMonitor{at: 50})
	for i := 0; i < 60; i++ {
		n.Step()
	}
	if n.Health() == nil {
		t.Fatal("monitor failed to latch")
	}
	return n
}

// TestRestorePreservesHealthLatch: the latch travels through snapshots —
// restoring a checkpoint of an unhealthy network yields an unhealthy
// network.
func TestRestorePreservesHealthLatch(t *testing.T) {
	n := latchedNetwork(t)
	var ckpt snapshot.Encoder
	n.SaveState(&ckpt)

	restored := New(snapCfg())
	if err := restored.LoadState(snapshot.NewDecoder(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Health() == nil {
		t.Fatal("restore dropped the health latch")
	}
}
