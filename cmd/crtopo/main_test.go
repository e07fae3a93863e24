package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTorusSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-topo", "torus", "-k", "4", "-dims", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"topology:      4x4 torus",
		"nodes:         16",
		"degree:        4 ports/node",
		"diameter:      4 hops",
		"capacity:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRouteDisplay(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-topo", "torus", "-k", "4", "-from", "0", "-to", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "route 0 -> 5 (distance 2)") {
		t.Fatalf("route header missing:\n%s", out)
	}
	if !strings.Contains(out, "DOR -> port") || !strings.Contains(out, "adaptive ports:") {
		t.Fatalf("per-hop lines missing:\n%s", out)
	}
	if !strings.Contains(out, "5: destination") {
		t.Fatalf("route does not reach destination:\n%s", out)
	}
	// A distance-2 route: header + 2 hop lines + destination line.
	routePart := out[strings.Index(out, "route 0 -> 5"):]
	if lines := strings.Count(strings.TrimSpace(routePart), "\n"); lines != 3 {
		t.Fatalf("expected 3 route lines after header, got %d:\n%s", lines, routePart)
	}
}

func TestRunMeshAndHypercube(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-topo", "mesh", "-k", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodes:         16") {
		t.Fatalf("mesh summary wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-topo", "hypercube", "-dims", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodes:         16") {
		t.Fatalf("hypercube summary wrong:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-topo", "nope"}, &buf); err == nil {
		t.Fatal("unknown topology accepted")
	}
	for _, args := range [][]string{{"-k", "0"}, {"-topo", "hypercube", "-dims", "40"}} {
		if err := run(args, &buf); err == nil || !strings.HasPrefix(err.Error(), "topology: ") {
			t.Fatalf("%v: err = %v, want a topology error", args, err)
		}
	}
	if err := run([]string{"-k", "4", "-from", "0", "-to", "99"}, &buf); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}
