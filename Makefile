# Developer entry points. The repo is plain `go build`-able; these targets
# just name the workflows CI and PRs rely on.

.PHONY: build test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test examples ci bench

build:
	go build ./...

test: build
	go test ./...

vet:
	go vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any
# tracked Go file. It checks tracked files only, so build output under
# .bench_build/ is never walked.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Repo-specific static analysis (internal/lint via cmd/misvet): the
# determinism contracts on code paths no test is sure to run — no wall
# clocks / math/rand / atomics / goroutines / map ranges in
# deterministic packages, allocation-free //congest:hotpath call chains,
# and coordinator-only randomness (draworder). Any finding fails the
# build; the summary line records the suite's wall time so analyzer cost
# regressions show up in CI logs. See README "Static analysis" for the
# escape hatches.
misvet:
	go run ./cmd/misvet ./...

# Engine safety net: vet plus race-detector coverage of the concurrent
# code — the CONGEST drivers (sharded worker pool, distributed
# coordinator), the multi-process fleet transport (frame codec, worker
# protocol, crash recovery), the programs that keep per-neighbour state
# in the engine's marks (Algorithm 1, matching, forest and the MIS
# programs), whose pool tests write each shard's marks from that shard's
# goroutine, and the dynamic-MIS engine, whose repairs run on the pool driver
# (TestGoldenStreamFingerprint, TestApplyBytes) with the engine's own
# trace.Recorder as the run's sink.
RACE_PKGS = ./internal/congest/... ./internal/distrib/... ./internal/core/... \
	./internal/matching/... ./internal/forest/... ./internal/mis/... \
	./internal/dynmis/...

race:
	go vet $(RACE_PKGS) && go test -race $(RACE_PKGS)

# Coverage gates: the engine, the fault-injection subsystem, and the
# execution-trace subsystem are the load-bearing packages; their statement
# coverage must stay at or above the threshold. The analyzer suite holds a
# higher bar — its fixture tests are the only thing standing between an
# analyzer regression and silently-unguarded determinism contracts.
COVER_PKGS        = repro/internal/faultsim repro/internal/congest repro/internal/trace
COVER_MIN         = 60.0
LINT_COVER_MIN    = 80.0
DYNMIS_COVER_MIN  = 80.0
DISTRIB_COVER_MIN = 80.0

COVER_AWK = { print } \
	/coverage:/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%/, "", pct); \
			if (pct + 0 < min) { printf "FAIL: %s coverage %s%% below %s%%\n", $$2, pct, min; bad = 1 } } \
	} \
	END { exit bad }

cover:
	@go test -cover $(COVER_PKGS) | awk -v min=$(COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/lint | awk -v min=$(LINT_COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/dynmis | awk -v min=$(DYNMIS_COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/distrib | awk -v min=$(DISTRIB_COVER_MIN) '$(COVER_AWK)'

# Allocation gates: a steady-state round must perform zero heap
# allocations — by the broadcast pull (every node broadcasting,
# sequentially and on four pool shards) or by the record pull (SendSlot
# loops, and under a delay plan) — the invariant the value-typed wire
# payloads, the reused records buffer and the per-shard inbox scratch
# exist to provide; a whole Run must make a fixed number of allocations
# independent of n, because every message buffer is sized once from the
# CSR (a faulted run reserves its records, their Broadcast index and n/8
# withheld pairs once), and a run of a Runner that Reset rebinds to a
# graph no larger than its last must make no allocation on the sequential
# driver, at most 16 on two pool shards (the run's worker goroutines) and
# at most 2 under drops, because it reuses every buffer of the last run;
# a whole Run at n = 2^14 must allocate at most 79 bytes
# per vertex on a reliable network and 94 under drops, because a run holds one Context
# per shard, its node streams in one 16-byte per-vertex table, one
# 32-byte outbox record and a 4-byte Broadcast-table entry per vertex and
# no inbox arena, and a distributed run under drops on two in-process workers at
# most 216, coordinator and workers together, because the coordinator
# keeps no outbox or inbox copy — it ships each round's send records once
# and the workers pull — and a worker ships its outbox as is; a
# distributed Runner must be built in at most 2 allocations with a nil
# factory, because it holds n output words and no nodes; every program factory
# (the distrib registry's, matching.New and forest.New) must build 2^14
# nodes in at most 64 allocations, because it carves them from a slab; a
# whole run of each program that tracks its active neighbours (luby-b,
# ghaffari, localmin, ftmetivier, matching, forest; factory, NewRunner
# and Run) must make at most 64 allocations at n = 2^10 and 2^14,
# sequentially and on two pool shards, because their per-neighbour state
# lives in the engine's marks, one allocation per shard, not in
# per-vertex slices or maps; and a whole
# Algorithm 1 run (RunAlg1: nodes, Run, statuses) must make at most 64
# heap objects at n = 2^10 and 2^14, sequentially and on two pool shards,
# because its nodes come from a slab, its active-neighbour flags live in
# the marks and its scale records ride the event bus, which an untraced
# run leaves off; and a
# 2^14-vertex graph must keep 4 bytes per CSR offset and adjacency entry,
# with New allocating no more than that, because vertex IDs fit an int32
# and New counts degrees and fills rows in the offsets themselves and
# copies the adjacency only to drop duplicates; a worker must decode its
# shard's rows (one shard of two of a 2^14-vertex union of two trees) in
# at most 1.1 times the rows it keeps plus 4 KB, because the config frame
# declares the adjacency length and the decoder makes each slice once; a
# dynamic-MIS Apply must allocate at most 2.5 KB on average over a
# 256-batch stream of 16 updates on a 2^12-vertex random tree,
# sequentially and on two pool shards, because a repair rebuilds the
# engine's one subgraph in place,
# rebinds its one Runner and folds its trace fingerprint in an
# engine-owned trace.Recorder, which stores no events; and an Engine
# bootstrapped on a 2^14-vertex random tree must hold at most 56 bytes
# per vertex, because New drops the bootstrap's whole-graph scratch,
# subgraph and Runner, and the DGraph locates each row in its arena by an
# 8-byte span. Fast (< 1s); runs in ci.
alloc-gate:
	go test -run '^(TestSteadyStateRound|TestRunAllocsIndependentOfN|TestReboundRunAllocs|TestRunBytesPerVertex|TestDistributedRunnerBuildsNoNodes|TestProgramRunAllocs)' -count=1 ./internal/congest/
	go test -run '^(TestFactoryAllocs|TestDecodeConfigBytes)$$' -count=1 ./internal/distrib/
	go test -run '^TestAlg1RunAllocs$$' -count=1 ./internal/core/
	go test -run '^TestGraphBytes$$' -count=1 ./internal/graph/
	go test -run '^(TestApplyBytes|TestEngineHeldBytes)$$' -count=1 ./internal/dynmis/

# Fuzz smoke: a 10s slice of native fuzzing over each decoder of bytes
# from outside the program — the distrib frame decoders (what the
# coordinator reads from a spawned worker process over the fleet's
# private unix socket, and a worker from the coordinator; an accepted
# frame must carry no packet, record or late message above
# congest.MaxWireBits, and a round frame's records, withheld pairs and
# late messages must be in the order the worker's pull walks), the JSONL
# trace reader, and the edge-list parser and graph constructor
# (cmd/arbmis -stdin) — plus the engine's differential target, which runs
# byte-scripted programs under every driver and requires the broadcast
# pull and the record pull, reliable and faulted, to agree, and every
# inbox to equal a reference written from the record pull's definition.
# Any panic, hang, runaway allocation, broken round trip, cross-driver
# divergence or reference mismatch fails it. go test fuzzes one target
# per run, hence five runs.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzCrossDriver$$' -fuzztime 10s ./internal/congest/
	go test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/distrib/
	go test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/trace/
	go test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzNewGraph$$' -fuzztime 10s ./internal/graph/

# The benchmark's own suite (perfbench is a separate module, outside the
# root `go test ./...`): p90 op-count rule, input determinism, tiny-size
# pinned digests for all four workloads, argument checks. Fast (~0.1s
# after the build); runs in ci.
perfbench-test:
	cd perfbench && go test ./...

# Example programs: runs every examples/* main and fails on a non-zero
# exit. No test drives them, and examples/shattering is the one reader of
# Algorithm 1's scale records through the public API. Fast (< 1s on a
# warm build cache); runs in ci.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		go run ./$$d >/dev/null || exit 1; \
	done

# Full pre-merge gate: build (cmd/traceview included via ./...) + tests,
# repo-wide vet, the gofmt gate, the misvet analyzer suite, race-detector
# pass, coverage floors, allocation gates, decoder fuzz smoke, the
# benchmark's own suite and the example programs. Cross-driver identity (sequential, pool and
# multi-process fleets, clean and faulted, static and dynamic graphs) is
# pinned by tests under `go test ./...`; the benchmark itself is
# perfbench (BENCHMARK.json).
ci: test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test examples

# Engine driver micro-benchmarks (ns/round per driver at n = 2^11, 2^14).
bench:
	go test -run '^$$' -bench BenchmarkEngineDrivers -benchmem .
