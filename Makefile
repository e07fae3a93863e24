# Tier-1 verification plus the race-detection gate for the parallel
# experiment harness. `make verify` is the pre-merge check.

GO ?= go

.PHONY: verify verify-full build test vet lint staticcheck race race-harness race-sharded race-sharded-full chaos fuzz bench benchmark perf-gate alloc-gate snapshot-pin results results-check profile

# Tier-1: build + tests, then vet, then the custom static-invariant
# suite, then the cycle-kernel allocation gate, then the worker pool's
# determinism test under the race detector (fast, targeted), then the
# sharded-kernel race gate, then the checkpoint/restore resume pin,
# then the chaos soak. About 5 minutes on the 2-core reference container.
GATES = build test vet lint alloc-gate race-harness
verify: $(GATES) race-sharded snapshot-pin chaos

# The same gates with the sharded-kernel race gate at its full range
# matrix (about 9 minutes more); CI's verify job runs this one.
verify-full: $(GATES) race-sharded-full snapshot-pin chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own five analyzers (internal/analysis via cmd/crlint; see
# DESIGN.md §6): map-range determinism (detmap), wall-clock purity
# (wallclock), seed-derivation discipline (rngsource), snapshot codec
# coverage and saved-but-never-read state (snapfields), and shard
# isolation (shardsafe). Must be clean at merge; justify real escapes
# with //cr: annotations instead of weakening the analyzers. Allocation
# freedom is measured, not linted: see alloc-gate.
lint:
	$(GO) run ./cmd/crlint ./...

# Optional deep lint: staticcheck, version-pinned so results are
# reproducible. Gated on tool availability: the CI/dev container may be
# offline with an empty module cache (no x/tools), in which case the
# target skips with a note instead of failing — `make lint`'s custom
# analyzers remain the hard merge gate either way. When the probe
# succeeds, staticcheck findings do fail the target.
STATICCHECK_VERSION ?= v0.4.7
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline module cache); skipped — make lint still gates"; \
	fi

# Full race sweep across every package (slow: includes the network soak
# tests).
race:
	$(GO) test -race ./...

# The harness worker pool and the sim drivers it runs, under -race.
# This includes the determinism regression test that compares
# parallel=1 against parallel=8 and shards=2 byte for byte — on five
# experiments here; plain `go test` runs it on all 32.
race-harness:
	$(GO) test -race ./internal/harness/... ./internal/sim/...

# The cycle kernel's inline/forked seam under the race detector with a
# pinned scheduler width: the one-range-vs-many byte-identity pin,
# cross-partition snapshot restore, the worker-panic hand-off, the
# full-harness run (fault timeline + hazard + watchdog + sampler
# attached) at shard counts including one that does not divide the node
# count, the scan-everything reference cross-check, and the golden pin
# against the deleted serial kernel. Every forked phase and merge
# barrier executes with real goroutine interleaving. -short replays the
# byte-identity and golden pins at one forked range count (2) beside the
# inline one; `make test` runs their whole {1,2,4,7,8,GOMAXPROCS} matrix
# without the race detector, and race-sharded-full runs it with. Both
# also run -short at GOMAXPROCS=1, where the coordinator and the range
# workers share one P: the coordinator recalls most claims, and a
# worker runs one only when a preemption lands inside a fork.
RACE_SHARDED = $(GO) test -race -count=1 -timeout 30m \
	-run 'TestSharded|TestShardPartition|TestActiveSetMatchesBruteForce|TestKernelGolden' \
	./internal/network/ ./internal/sim/
race-sharded:
	GOMAXPROCS=4 $(RACE_SHARDED) -short
	GOMAXPROCS=1 $(RACE_SHARDED) -short

race-sharded-full:
	GOMAXPROCS=4 $(RACE_SHARDED)
	GOMAXPROCS=1 $(RACE_SHARDED) -short

# The chaos soaks (random fail/repair timeline, the load-coupled hazard
# process, and the graceful-degradation controller's recovery arc, all
# with the invariant watchdog) under the race detector with a pinned
# scheduler width, so the step loop's monitor hook is exercised with
# real goroutine interleaving.
chaos:
	GOMAXPROCS=4 $(GO) test -race -run 'TestChaosSoak|TestSweepSurvives|TestSweepPointTimeout|TestDegradeControllerRecovers|TestHazardNetworkDeterminism' ./internal/sim/ ./internal/network/

# Short-budget fuzz pass over the two checkpoint readers. The container
# reader: arbitrary bytes must yield either a valid canonical container
# of the one accepted version or a *FormatError, never a panic or a
# partial payload. The network payload reader, seeded with the three
# pinned payloads and a save of a mostly unbuilt network: either an
# error, or a restored network that steps 64 cycles under Config.Check
# without a panic — the consistency walk passing after every Step — and
# whose re-save is a fixed point (it loads and re-saves to itself). The
# minimize budget is capped so a pass is spent finding inputs, not
# shrinking the first interesting one. Each input steps four networks,
# so CI's fuzz job passes FUZZTIME=60s; crank it locally for a deeper
# soak.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/snapshot/ -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -run '^FuzzDecode$$'
	$(GO) test ./internal/network/ -fuzz '^FuzzNetworkLoadState$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -run '^FuzzNetworkLoadState$$'

# The per-layer Benchmark* microbenchmarks, for use while working on one
# layer; `make benchmark` below is the repository's performance number.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/...

# Deterministic-resume pin: checkpoint at cycle K, restore, continue —
# byte-identical to an unbroken run, at the network, replayer, service
# and binary (crsimd) layers, under the race detector and uncached so
# the guarantee cannot silently go stale — including a node first built
# after the restore, a restore into a network that had built other
# nodes, and the sparse512 shape restoring exactly what was saved. The
# second run restores the pinned checkpoint files under
# internal/network/testdata (a serial, a DAMQ and a credit-shared
# mid-run network, recorded at format 6 and carried forward to formats 7
# and 8; DESIGN.md §8) to the
# recorded digests and re-saves them to their own bytes; it is separate
# because a '/' in -run filters every test's subtests.
snapshot-pin:
	$(GO) test -race -count=1 \
		-run 'TestResume|TestServiceResume|TestReplayerPosition|TestRestoreIntoDirtyTarget|TestSparseSnapshot|TestReadsDoNotConstruct' \
		./internal/network/ ./internal/sim/ ./internal/workload/ ./cmd/crsimd/
	$(GO) test -race -count=1 -run 'TestKernelGolden/resume' ./internal/network/

# Allocation-regression gate, counted exactly per window: after warmup,
# 500 loaded simulation cycles (traffic + step + drain) must not
# allocate once — for every buffer organization and for FCR under
# corruption with a hazard failing and repairing links; 16 256-cycle
# batches of a Service on the daemon16 configuration at 8x8 (sampler,
# degrader, hazard, watchdog) must not allocate; the snapshot Encoder's
# primitives must not allocate on a warmed buffer; and neither a
# receiver checkpoint save (its state stays in the order the codec
# writes it) nor a replayer's (the trace is digested once, at
# construction) may allocate. Each gated window checks that its kill,
# FKILL, hazard and shed counters moved, so a path the gate stopped
# reaching fails it. The structures the kernel holds one
# of per link, per flit, per busy link and per credit (link, flit.Flit,
# linkRef, inFlight, creditEvent), the router's per-VC state (inVC,
# outVC) and its route cache and masks (one allocation, 2 bytes a slot)
# and a receiver's stamp records (48 bytes each) must stay within their
# byte budgets, and the router's hot fields within its first 256 bytes
# with a pointer-free output (TestRouterHotHeader), so a field added to
# one fails here rather than in peak RSS or cache misses. Run uncached
# so it cannot silently go stale.
ALLOC_GATES = TestSteadyStateZeroAlloc|TestServiceZeroAlloc|TestEncoderZeroAlloc|TestReceiverSaveStateAllocs|TestReplayerSaveStateAllocs|TestHotStructSizes|TestVCStateSizes|TestRouterHotHeader|TestRouteCacheBytes|TestStampRecordBytes
alloc-gate:
	$(GO) test ./internal/network/ ./internal/core/ ./internal/sim/ ./internal/snapshot/ ./internal/router/ ./internal/workload/ -run '$(ALLOC_GATES)' -count=1

# The repository's one performance benchmark (BENCHMARK.json,
# benchmark/README.md): five workloads, each untraced then traced in a
# fresh child process. The document goes to BENCH_DOC; trace files and
# checkpoints go under profile/bench/.
BENCH_DOC ?= profile/bench.json
benchmark:
	@mkdir -p profile
	$(GO) run ./benchmark -all -seed 1 -out profile/bench > $(BENCH_DOC)
	@echo "benchmark document: $(BENCH_DOC)"

# Regression gate: every end-to-end metric of BENCH_DOC against the
# checked-in baseline, per workload, within the bounds BENCHMARK.json
# fixes; model.*/core.*/ckpt_bytes/success_share must match exactly.
# The baseline's host was in a slow stretch (benchmark/README.md,
# "Baseline"), so for a claim re-run the parent beside the change and
# compare those two documents instead.
perf-gate:
	$(GO) run ./benchmark -compare benchmark/baseline.json $(BENCH_DOC)

# Regenerate the quick-scale result tables checked into the repo.
RESULTS_CMD = $(GO) run ./cmd/crbench -exp all -scale quick -quiet
results:
	$(RESULTS_CMD) > results_quick.txt

# The checked-in tables are what the code produces: regenerate them to a
# temporary file and compare byte for byte (~2 min on 2 cores; CI runs it
# as its own job, `make verify` does not). crbench's exit status also
# fails the target on a FAIL row or a failed sweep point.
results-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		$(RESULTS_CMD) > "$$tmp" && cmp "$$tmp" results_quick.txt && \
		echo "results_quick.txt is current"

# Profile a representative sweep (E5 buffer-depth grid, serial mode for
# a clean call tree). Inspect with `go tool pprof profile/cpu.out` or
# `go tool trace profile/trace.out`.
PROFILE_EXP ?= E5
profile:
	mkdir -p profile
	$(GO) run ./cmd/crbench -exp $(PROFILE_EXP) -scale quick -quiet \
		-cpuprofile profile/cpu.out -memprofile profile/mem.out -trace profile/trace.out
	$(GO) tool pprof -top -nodecount=15 profile/cpu.out
