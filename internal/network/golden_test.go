package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crnet/internal/flit"
	"crnet/internal/router"
	"crnet/internal/snapshot"
	"crnet/internal/topology"
)

// The cross-commit identity pin. Every other equivalence test in this
// package compares the kernel with itself (one range against several, a
// resumed run against an unbroken one); TestKernelGolden compares it
// with a recording, so a change that moves any result fails here even
// if it moves every run the same way.
//
// Until snapshot format 6 the digests were those of the serial kernel of
// commit d1bab0f (runs, resume) and of the linked-slot pooledStore of
// 878c4f8 (pooled_*): the kernel that survived matched the ones that
// were deleted. Format 6 made the kernel's random draws keyed (jitter,
// corruption, hazard; rng.At), which changes every run that backs off,
// corrupts or draws a hazard, and so every pinned one. The digests and
// the three checkpoint files were therefore re-recorded once, by the
// kernel of that change (DESIGN.md §8 has the log); the digest functions
// below are what the recorder ran. From then on a kernel change that
// moves a digest is a second re-seed and must say so. Formats 7 and 8
// changed the files' layout, not the state they hold: each time the
// same recorder, which still reproduced the previous format's files
// byte for byte on the parent tree, wrote them anew, and only their
// hashes below changed. (The recorder runs the schedule below to the
// recorded cycle, submits that cycle's messages and encodes SaveState;
// DESIGN.md §8 has the log.)

// kernelGolden is testdata/kernel_golden.json.
type kernelGolden struct {
	RecordedAt string `json:"recorded_at"`
	// Runs maps each TestShardedMatchesSerial configuration to the digest
	// of its serial run: kernelSnapshot plus the full trace stream.
	Runs map[string]string `json:"runs"`
	// Resume describes testdata/serial_midrun.crsnap: a serial snapCfg
	// network saved at Cycle, after that cycle's submission and before its
	// Step. Digest covers the unbroken run from Cycle to Until.
	Resume struct {
		Cycle  int64  `json:"cycle"`
		Until  int64  `json:"until"`
		Digest string `json:"digest"`
	} `json:"resume"`
	// PooledRuns maps each TestShardedMatchesSerialBufferOrgs
	// configuration to the digest of its serial run.
	PooledRuns map[string]string `json:"pooled_runs"`
	// PooledResume describes one checkpoint per shared organization,
	// written from a pooledSnapCfg network under pooledSubmit at Cycle
	// (submitted, not yet stepped). At that cycle GrantsAbove granted
	// windows stood above the reserve and RotationsSet pools had a
	// non-zero grant rotation, so the file's ledger section is not the
	// as-constructed one.
	PooledResume map[string]struct {
		File         string `json:"file"`
		Cycle        int64  `json:"cycle"`
		Until        int64  `json:"until"`
		GrantsAbove  int    `json:"grants_above_reserve"`
		RotationsSet int    `json:"nonzero_grant_rotations"`
		Digest       string `json:"digest"`
	} `json:"pooled_resume"`
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
func resumeTail(n *Network, until int64, submit func(*Network, int64)) string {
	h := sha256.New()
	n.SetTracer(func(ev Event) { fmt.Fprintf(h, "%+v\n", ev) })
	var log []string
	n.Step()
	for _, d := range n.DrainDeliveries() {
		log = append(log, fmt.Sprintf("%+v", d))
	}
	snapRunWith(n, until, &log, submit)
	fmt.Fprintf(h, "%q\n%+v %+v %+v %d %d %d\n", log, n.InjectorStats(), n.ReceiverStats(),
		n.RouterStats(), n.TransientFaults(), n.flitsDropped, n.DroppedKillSignals())
	return hex.EncodeToString(h.Sum(nil))
}

// pooledSnapCfg is the network the pooled checkpoints were taken from:
// snapCfg (4x4 torus, FCR, transient corruption, two fail/repair pairs)
// with two VCs, so both shared organizations have siblings to share with.
func pooledSnapCfg(org router.BufferOrg) Config {
	c := snapCfg()
	c.BufOrg = org
	c.VCs = 2
	return c
}

// pooledSubmit is the schedule they ran under: every node submits a
// 4..10-flit message every tenth cycle, staggered, which keeps several
// worms contending for each pool (snapSubmit's one message per three
// cycles never makes two siblings active at once).
func pooledSubmit(n *Network, cycle int64) {
	nodes := int64(n.Topology().Nodes())
	for src := int64(0); src < nodes; src++ {
		if (cycle+3*src)%10 != 0 {
			continue
		}
		n.SubmitMessage(flit.Message{
			ID:         flit.MessageID(cycle*nodes + src + 1),
			Src:        topology.NodeID(src),
			Dst:        topology.NodeID((src + 1 + (cycle/10+src)%(nodes-1)) % nodes),
			DataLen:    int(4 + (cycle+src)%7),
			CreateTime: cycle,
		})
	}
}

// goldenShards is the range counts every golden digest is replayed at:
// inline, forked, and a count that divides no node count — the first
// two under -short (see shardCounts).
func goldenShards() []int {
	if testing.Short() {
		return []int{1, 2}
	}
	return []int{1, 2, 7}
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

	replay := func(pcs []pinConfig, recorded map[string]string) {
		for _, pc := range pcs {
			pc := pc
			t.Run(pc.name, func(t *testing.T) {
				t.Parallel()
				want, ok := recorded[pc.name]
				if !ok {
					t.Fatalf("no recorded digest for %s", pc.name)
				}
				for _, shards := range goldenShards() {
					if got := digestRun(pc.run(shards)); got != want {
						t.Errorf("shards=%d: digest %s, recorded %s", shards, got, want)
					}
				}
			})
		}
	}
	replay(shardedPinConfigs(), g.Runs)
	replay(bufOrgPinConfigs(), g.PooledRuns)

	t.Run("resume", func(t *testing.T) {
		payload := readPinnedSnapshot(t, goldenSnapshotFile, g.Resume.Cycle)
		resumePinned(t, payload, snapCfg, snapSubmit, g.Resume.Until, g.Resume.Digest)
	})

	// Subtest names start with "resume" so `make snapshot-pin` selects
	// them together with the one above (-run 'TestKernelGolden/resume').
	for _, org := range sharedOrgs {
		org := org
		t.Run("resume_"+org.String(), func(t *testing.T) {
			rec, ok := g.PooledResume[org.String()]
			if !ok || rec.GrantsAbove == 0 || rec.RotationsSet == 0 {
				t.Fatalf("no recorded checkpoint with a moved ledger for %s: %+v", org, rec)
			}
			payload := readPinnedSnapshot(t, rec.File, rec.Cycle)
			resumePinned(t, payload, func() Config { return pooledSnapCfg(org) }, pooledSubmit, rec.Until, rec.Digest)
		})
	}
}

// pinnedSnapshots are the checkpoint files by content hash, so a file
// regenerated from a later tree (which would pin the kernel to itself)
// cannot pass for the recording.
var pinnedSnapshots = map[string]string{
	goldenSnapshotFile:     "8b09de040fb05cbbc0dfc2f4e1be5213568f9d3dfdc42704164c811f5d44e429",
	"damq_midrun.crsnap":   "2a61b70679d200c792830519671034967871588f698ebfdbdf631f674e86ad61",
	"shared_midrun.crsnap": "4f727dc7a2ea2972c96c6beb61db6e72cd7749f255287763c43a17c958b9e748",
}

// readPinnedSnapshot returns the payload of a pinned checkpoint file
// after checking that the file is the recorded one.
func readPinnedSnapshot(t *testing.T, file string, wantCycle int64) []byte {
	t.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != pinnedSnapshots[file] {
		t.Fatalf("%s is not the recorded file (sha256 %x)", file, sum)
	}
	cycle, payload, err := snapshot.Decode(path, raw)
	if err != nil {
		t.Fatal(err)
	}
	if cycle != wantCycle {
		t.Fatalf("snapshot cycle %d, golden says %d", cycle, wantCycle)
	}
	return payload
}

// resumePinned restores a pinned payload at goldenShards ranges and
// checks each continuation against the recorded unbroken run. LoadState
// checks the payload's fingerprint first, so loading at all pins
// ConfigFingerprint to the recorder's, and the restored network re-saves
// to the file's bytes — components built and unbuilt included.
func resumePinned(t *testing.T, payload []byte, cfg func() Config, submit func(*Network, int64), until int64, digest string) {
	t.Helper()
	for _, shards := range goldenShards() {
		c := cfg()
		c.Shards = shards
		n := New(c)
		if err := n.LoadState(snapshot.NewDecoder(payload)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 && !bytes.Equal(saveBytes(n), payload) {
			t.Error("the restored network does not re-save to the pinned bytes")
		}
		if got := resumeTail(n, until, submit); got != digest {
			t.Errorf("shards=%d: resumed digest %s, recorded unbroken run %s", shards, got, digest)
		}
	}
}
