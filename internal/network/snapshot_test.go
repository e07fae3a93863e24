package network

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/faults"
	"crnet/internal/flit"
	"crnet/internal/routing"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// snapCfg builds the checkpoint-test configuration: FCR on a 4x2 torus
// with transient corruption and a fault timeline straddling the
// checkpoint cycle, so a restore must resume the corruption count and
// the fault cursor mid-timeline. Each call constructs
// a fresh Schedule: the cursor is mutable run state, so two networks
// must never share one.
func snapCfg() Config {
	return Config{
		Topo:          topology.NewTorus(4, 2),
		Alg:           routing.MinimalAdaptive{},
		Protocol:      core.FCR,
		Backoff:       core.Backoff{Kind: core.BackoffExponential, Gap: 8},
		TransientRate: 5e-3,
		Seed:          13,
		Faults: faults.NewSchedule([]faults.Event{
			{Cycle: 100, Link: faults.LinkID{Node: 0, Port: 0}},
			{Cycle: 300, Link: faults.LinkID{Node: 0, Port: 0}, Up: true},
			{Cycle: 600, Link: faults.LinkID{Node: 3, Port: 1}},
			{Cycle: 900, Link: faults.LinkID{Node: 3, Port: 1}, Up: true},
		}),
		Check: true,
	}
}

// snapSubmit submits the deterministic traffic schedule for one cycle:
// a fixed function of the cycle number, so the reference run and the
// restored run offer byte-identical load.
func snapSubmit(n *Network, cycle int64) {
	if cycle%3 != 0 {
		return
	}
	nodes := int64(n.Topology().Nodes())
	src := (cycle / 3) % nodes
	dst := (src + 3 + cycle%2) % nodes
	if dst == src {
		return
	}
	n.SubmitMessage(flit.Message{
		ID:         flit.MessageID(cycle/3 + 1),
		Src:        topology.NodeID(src),
		Dst:        topology.NodeID(dst),
		DataLen:    int(8 + cycle%5),
		CreateTime: cycle,
	})
}

// snapRun advances the network from its current cycle to cycle `to`,
// submitting the schedule and recording every delivery as a formatted
// line (cycle-ordered; order within a cycle is the drain order).
func snapRun(n *Network, to int64, log *[]string) { snapRunWith(n, to, log, snapSubmit) }

// snapRunWith is snapRun under another deterministic schedule.
func snapRunWith(n *Network, to int64, log *[]string, submit func(*Network, int64)) {
	for n.Cycle() < to {
		submit(n, n.Cycle())
		n.Step()
		for _, d := range n.DrainDeliveries() {
			*log = append(*log, fmt.Sprintf("c%d msg=%d worm=%d src=%d len=%d ok=%t ha=%d st=%+v",
				d.Time, d.Msg, d.Worm, d.Src, d.DataLen, d.DataOK, d.HeadArrived, d.Stamps))
		}
	}
}

// TestResumeByteIdentical is the subsystem's pinned determinism
// guarantee: checkpoint at cycle K, restore into a freshly constructed
// network, and the continuation K→M — every delivery, every counter,
// every internal queue — is byte-identical to a run that never
// stopped, under transient corruption and a permanent-fault timeline
// whose events fire on both sides of K.
func TestResumeByteIdentical(t *testing.T) {
	const K, M = 400, 1200

	// Unbroken reference run.
	ref := New(snapCfg())
	var refLog []string
	snapRun(ref, M, &refLog)
	var refFinal snapshot.Encoder
	ref.SaveState(&refFinal)

	// Broken run: checkpoint at K...
	first := New(snapCfg())
	var firstLog []string
	snapRun(first, K, &firstLog)
	var ckpt snapshot.Encoder
	first.SaveState(&ckpt)

	// ...restore into a brand-new network, continue to M.
	resumed := New(snapCfg())
	if err := resumed.LoadState(snapshot.NewDecoder(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if resumed.Cycle() != K {
		t.Fatalf("restored cycle = %d, want %d", resumed.Cycle(), K)
	}
	resumedLog := append([]string(nil), firstLog...)
	snapRun(resumed, M, &resumedLog)
	var resumedFinal snapshot.Encoder
	resumed.SaveState(&resumedFinal)

	if len(refLog) == 0 {
		t.Fatal("reference run delivered nothing; test is vacuous")
	}
	if ref.TransientFaults() == 0 {
		t.Fatal("no transient corruption occurred; test is vacuous")
	}
	if ref.InjectorStats().Retries == 0 {
		t.Fatal("no retransmissions occurred; test is vacuous")
	}
	for i := range refLog {
		if i >= len(resumedLog) || resumedLog[i] != refLog[i] {
			got := "<missing>"
			if i < len(resumedLog) {
				got = resumedLog[i]
			}
			t.Fatalf("delivery %d diverged:\n  unbroken: %s\n  resumed:  %s", i, refLog[i], got)
		}
	}
	if len(resumedLog) != len(refLog) {
		t.Fatalf("resumed run delivered %d messages, unbroken %d", len(resumedLog), len(refLog))
	}
	if !bytes.Equal(refFinal.Bytes(), resumedFinal.Bytes()) {
		t.Fatalf("final states differ: unbroken %d bytes, resumed %d bytes",
			refFinal.Len(), resumedFinal.Len())
	}
}

// TestResumeMidFlight checkpoints while worms are in flight (flits on
// links, partial assemblies at receivers, injectors mid-frame) rather
// than at a quiet cycle, and still demands byte-identical continuation.
func TestResumeMidFlight(t *testing.T) {
	// Cycle 31 is one cycle after a submission burst at 30: injection
	// buffers and links are occupied.
	const K, M = 31, 500

	ref := New(snapCfg())
	var refLog []string
	snapRun(ref, M, &refLog)
	var refFinal snapshot.Encoder
	ref.SaveState(&refFinal)

	first := New(snapCfg())
	var log []string
	snapRun(first, K, &log)
	if first.InFlightFlits() == 0 && first.PendingWorms() == 0 {
		t.Fatal("nothing in flight at checkpoint; test is vacuous")
	}
	var ckpt snapshot.Encoder
	first.SaveState(&ckpt)

	resumed := New(snapCfg())
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
		t.Fatal("final states differ after mid-flight resume")
	}
}

// TestRestoreRejectsForeignConfig: a snapshot from a differently
// configured network is refused by the fingerprint gate before any
// state is touched.
func TestRestoreRejectsForeignConfig(t *testing.T) {
	donor := New(snapCfg())
	var log []string
	snapRun(donor, 200, &log)
	var ckpt snapshot.Encoder
	donor.SaveState(&ckpt)

	other := snapCfg()
	other.Seed = 14 // different draws: structurally incompatible
	target := New(other)
	var before snapshot.Encoder
	target.SaveState(&before)

	if err := target.LoadState(snapshot.NewDecoder(ckpt.Bytes())); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
	var after snapshot.Encoder
	target.SaveState(&after)
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("rejected restore mutated the network")
	}
}

// TestRestoreRejectsCorruptPayload: container-level validation rejects
// a bit-flipped checkpoint file before LoadState ever runs, and the
// target network is untouched.
func TestRestoreRejectsCorruptPayload(t *testing.T) {
	donor := New(snapCfg())
	var log []string
	snapRun(donor, 200, &log)
	var payload snapshot.Encoder
	donor.SaveState(&payload)
	file := snapshot.Encode(donor.Cycle(), payload.Bytes())

	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-7] }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mangle(append([]byte(nil), file...))
			_, _, err := snapshot.Decode("ckpt", bad)
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			var ferr *snapshot.FormatError
			if !errors.As(err, &ferr) {
				t.Fatalf("error %v is not a *snapshot.FormatError", err)
			}
		})
	}
}

// TestEarlierLayoutRefused: a bare payload of an earlier layout opens
// with the configuration digest continued over that layout's suffix (or,
// before layouts were named, the bare digest), so LoadState refuses it
// at the fingerprint gate, before anything is touched — also when the
// rest of the payload would decode as the current layout.
func TestEarlierLayoutRefused(t *testing.T) {
	donor := New(snapCfg())
	var log []string
	snapRun(donor, 200, &log)
	payload := saveBytes(donor)
	for _, layout := range []string{"", " layout=sparse4", " layout=5", " layout=6", " layout=7"} {
		var e snapshot.Encoder
		e.U64(donor.fingerprint(layout))
		e.Raw(payload[8:])
		target := New(snapCfg())
		before := saveBytes(target)
		err := target.LoadState(snapshot.NewDecoder(e.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("layout %q: LoadState = %v, want a fingerprint mismatch", layout, err)
		}
		if !bytes.Equal(saveBytes(target), before) {
			t.Fatalf("layout %q: the refused restore mutated the network", layout)
		}
	}
}
