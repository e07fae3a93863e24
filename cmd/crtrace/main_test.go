package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTracesKilledMessage drives the main path on a 4x4 torus at a
// load high enough to force kills and checks a well-formed trace comes
// out.
func TestRunTracesKilledMessage(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-k", "4", "-load", "0.9", "-msglen", "8", "-cycles", "8000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "no message was killed") {
		t.Fatalf("no kill at 0.9 load on a 4x4 torus — suspicious:\n%s", out)
	}
	if !strings.Contains(out, "trace of message ") || !strings.Contains(out, "4x4 torus") {
		t.Fatalf("trace header malformed:\n%s", out)
	}
	if !strings.Contains(out, "events shown; head-flit hops and protocol events only") {
		t.Fatalf("trace footer missing:\n%s", out)
	}
	// A killed message's timeline must show at least inject + kill.
	if !strings.Contains(out, "KILL") {
		t.Fatalf("trace of a killed message shows no KILL event:\n%s", out)
	}
}

// TestRunTracesFKillUnderFaults watches the FCR path: with transient
// corruption an FKILL retransmission should be traced.
func TestRunTracesFKillUnderFaults(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-k", "4", "-protocol", "fcr", "-load", "0.3", "-msglen", "8",
		"-fault-rate", "5e-3", "-cycles", "8000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "no message was killed") {
		t.Fatalf("no FKILL at fault rate 5e-3:\n%s", out)
	}
	if !strings.Contains(out, "FCR") {
		t.Fatalf("header does not echo protocol:\n%s", out)
	}
}

// TestRunDeterministic pins the debugging contract: same seed, same
// trace, byte for byte.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-k", "4", "-load", "0.9", "-msglen", "8", "-cycles", "4000", "-seed", "7"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed produced different traces:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
}

func TestRunRejectsBadProtocol(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "tcp"}, &buf); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := run([]string{"-k", "1"}, &buf); err == nil {
		t.Fatal("radix 1 accepted")
	}
}

// TestRunQuietWindow checks the graceful no-kill path: a window far
// shorter than the kill timeout cannot contain a kill.
func TestRunQuietWindow(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-k", "4", "-load", "0.05", "-msglen", "8", "-cycles", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no message was killed") {
		t.Fatalf("expected quiet-window notice:\n%s", buf.String())
	}
}
