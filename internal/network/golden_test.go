package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crnet/internal/snapshot"
)

// The cross-commit identity pin. Every other equivalence test in this
// package compares the kernel with itself (one range against several, a
// resumed run against an unbroken one). The files under testdata/ were
// recorded from the serial kernel of commit d1bab0f — the last commit
// that had one, with its own phase functions and network-level
// worklists — so TestKernelGolden is the check that the kernel which
// survived equals the one that was deleted. The recorder cannot be
// rebuilt from this tree (that kernel is gone); the digest functions
// below are what it ran.

// kernelGolden is testdata/kernel_golden.json.
type kernelGolden struct {
	RecordedAt string `json:"recorded_at"`
	// Runs maps each TestShardedMatchesSerial configuration to the digest
	// of its serial run: kernelSnapshot plus the full trace stream.
	Runs map[string]string `json:"runs"`
	// Resume describes testdata/serial_midrun.crsnap: a serial snapCfg
	// network saved at Cycle, after that cycle's submission and before its
	// Step, so the injector worklist was written unsorted with the
	// needs-sort flag set (the bytes at FlagOffsets of the payload are the
	// two worklists' flags). Digest covers the unbroken run from Cycle to
	// Until.
	Resume struct {
		Cycle       int64  `json:"cycle"`
		Until       int64  `json:"until"`
		FlagOffsets [2]int `json:"needs_sort_flag_offsets"`
		Digest      string `json:"digest"`
	} `json:"resume"`
}

const goldenSnapshotFile = "serial_midrun.crsnap"

func digestRun(s tracedSnapshot) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", s.kernelSnapshot)
	for _, ev := range s.events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resumeTail runs a network standing at the golden checkpoint (cycle K
// submitted, not yet stepped) on to cycle until, and digests everything
// observable: the trace stream, the delivery log, the counters.
func resumeTail(n *Network, until int64) string {
	h := sha256.New()
	n.SetTracer(func(ev Event) { fmt.Fprintf(h, "%+v\n", ev) })
	var log []string
	n.Step()
	for _, d := range n.DrainDeliveries() {
		log = append(log, fmt.Sprintf("%+v", d))
	}
	snapRun(n, until, &log)
	fmt.Fprintf(h, "%q\n%+v %+v %+v %d %d %d\n", log, n.InjectorStats(), n.ReceiverStats(),
		n.RouterStats(), n.TransientFaults(), n.flitsDropped, n.DroppedKillSignals())
	return hex.EncodeToString(h.Sum(nil))
}

func TestKernelGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "kernel_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g kernelGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}

	for _, pc := range shardedPinConfigs() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			want, ok := g.Runs[pc.name]
			if !ok {
				t.Fatalf("no recorded digest for %s", pc.name)
			}
			for _, shards := range []int{1, 2, 7} {
				if got := digestRun(pc.run(shards)); got != want {
					t.Errorf("shards=%d: digest %s, recorded serial kernel %s", shards, got, want)
				}
			}
		})
	}

	t.Run("resume", func(t *testing.T) {
		cycle, payload, err := snapshot.ReadFile(filepath.Join("testdata", goldenSnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if cycle != g.Resume.Cycle {
			t.Fatalf("snapshot cycle %d, golden says %d", cycle, g.Resume.Cycle)
		}
		flags := 0
		for _, off := range g.Resume.FlagOffsets {
			if payload[off] > 1 {
				t.Fatalf("payload byte %d = %d is not a flag", off, payload[off])
			}
			flags += int(payload[off])
		}
		if flags == 0 {
			t.Fatal("recorded snapshot has no needs-sort flag set; it no longer covers that path")
		}
		for _, shards := range []int{1, 2, 7} {
			c := snapCfg()
			c.Shards = shards
			n := New(c)
			if err := n.LoadState(snapshot.NewDecoder(payload)); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if got := resumeTail(n, g.Resume.Until); got != g.Resume.Digest {
				t.Errorf("shards=%d: resumed digest %s, recorded unbroken run %s", shards, got, g.Resume.Digest)
			}
		}
	})
}
