package main

import (
	"strings"
	"testing"

	"crnet/internal/core"
	"crnet/internal/routing"
	"crnet/internal/topology"
)

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig("torus", 8, 2, "cr", "", 0, 2, 1, 1, 0, "exp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != core.CR {
		t.Fatalf("protocol %v", cfg.Protocol)
	}
	if _, ok := cfg.Alg.(routing.MinimalAdaptive); !ok {
		t.Fatalf("cr default routing = %T, want adaptive", cfg.Alg)
	}
	if cfg.Backoff.Kind != core.BackoffExponential {
		t.Fatal("default backoff not exponential")
	}

	cfg, err = buildConfig("torus", 8, 2, "plain", "", 0, 2, 1, 1, 0, "exp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Alg.(routing.DOR); !ok {
		t.Fatalf("plain default routing = %T, want DOR", cfg.Alg)
	}
}

func TestBuildConfigTopologies(t *testing.T) {
	cases := []struct {
		topo  string
		k, d  int
		nodes int
	}{
		{"torus", 4, 2, 16},
		{"mesh", 4, 2, 16},
		{"hypercube", 0, 5, 32},
	}
	for _, c := range cases {
		cfg, err := buildConfig(c.topo, c.k, c.d, "cr", "adaptive", 1, 2, 1, 1, 0, "exp", 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.topo, err)
		}
		if cfg.Topo.Nodes() != c.nodes {
			t.Fatalf("%s: %d nodes, want %d", c.topo, cfg.Topo.Nodes(), c.nodes)
		}
	}
}

func TestBuildConfigStaticBackoff(t *testing.T) {
	cfg, err := buildConfig("torus", 4, 2, "cr", "", 0, 2, 1, 1, 0, "32", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backoff.Kind != core.BackoffStatic || cfg.Backoff.Gap != 32 {
		t.Fatalf("backoff %+v", cfg.Backoff)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := []struct {
		topo, proto, alg, backoff string
	}{
		{"ring", "cr", "", "exp"},
		{"torus", "xyz", "", "exp"},
		{"torus", "cr", "magic", "exp"},
		{"torus", "cr", "", "fast"},
		{"torus", "cr", "", "-3"},
	}
	for _, c := range cases {
		if _, err := buildConfig(c.topo, 4, 2, c.proto, c.alg, 0, 2, 1, 1, 0, c.backoff, 0, 1); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
	// A radix or order no topology has is the same one-line error.
	for _, c := range []struct {
		topo    string
		k, dims int
	}{{"torus", 0, 2}, {"torus", 1, 2}, {"hypercube", 16, 40}} {
		_, err := buildConfig(c.topo, c.k, c.dims, "cr", "", 0, 2, 1, 1, 0, "exp", 0, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "topology: ") {
			t.Errorf("%+v: err = %v, want a topology error", c, err)
		}
	}
}

// TestBuildConfigRejectsInvalidNetwork: flag values the network cannot
// be built from are a usage error, not a panic from the first cycle.
func TestBuildConfigRejectsInvalidNetwork(t *testing.T) {
	cases := []struct {
		name                      string
		proto, alg                string
		vcs, bufDepth, injCh, ejC int
	}{
		{"-inj -1", "cr", "", 0, 2, -1, 1},
		{"-bufdepth -3", "cr", "", 0, -3, 1, 1},
		{"-routing dor -protocol plain -vcs 1", "plain", "dor", 1, 2, 1, 1},
	}
	for _, c := range cases {
		if _, err := buildConfig("torus", 4, 2, c.proto, c.alg, c.vcs, c.bufDepth, c.injCh, c.ejC, 0, "exp", 0, 1); err == nil {
			t.Errorf("crsim -k 4 %s: accepted", c.name)
		}
	}
}

func TestBuildConfigDuato(t *testing.T) {
	cfg, err := buildConfig("torus", 4, 2, "plain", "duato", 0, 2, 1, 1, 0, "exp", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alg.MinVCs(topology.NewTorus(4, 2)) != 3 {
		t.Fatal("duato routing not configured")
	}
}
