# Developer entry points. The repo is plain `go build`-able; these targets
# just name the workflows CI and PRs rely on.

.PHONY: build test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test scale-smoke dynmis-smoke dist-smoke ci bench-engine bench bench-faults bench-trace bench-alloc bench-scale bench-dynmis bench-dist

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
# determinism and CONGEST contracts — no wall clocks / math/rand /
# atomics / goroutines / map ranges in deterministic packages, closed
# wire-kind and frame-kind namespaces, encoder bit sizes within
# congest.MaxWireBits, allocation-free //congest:hotpath call chains, and
# coordinator-only randomness (draworder). Any non-baselined finding fails
# the build; the summary line records the suite's wall time so analyzer
# cost regressions show up in CI logs. See README "Static analysis" for
# the escape hatches.
misvet:
	go run ./cmd/misvet ./...

# Engine safety net: vet plus race-detector coverage of the concurrent
# code — the CONGEST drivers (sharded worker pool, distributed
# coordinator), the multi-process fleet transport (frame codec, worker
# protocol, crash recovery), and Algorithm 1, whose run-wide node, flag
# and scale-record slices pool shard workers write concurrently, each at
# its own vertices' entries.
race:
	go vet ./internal/congest/... ./internal/distrib/... ./internal/core/... && go test -race ./internal/congest/... ./internal/distrib/... ./internal/core/...

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
# allocations — pulled (every node broadcasting, sequentially and on four
# pool shards) or pushed (SendSlot loops, and under a delay plan) — the
# invariant the value-typed wire payloads, the flat inbox arena and the
# per-shard pull scratch exist to provide; a whole Run must make a fixed
# number of allocations independent of n, because every message buffer
# is sized once from the CSR; and a whole Algorithm 1 run (RunAlg1:
# nodes, Run, outputs) must make at most 64 heap objects plus one per
# returned ScaleRecord at n = 2^10 and 2^14, sequentially and on two pool
# shards, because its nodes, active-neighbour flags and records live in
# run-wide slices. Fast (< 1s); runs in ci.
alloc-gate:
	go test -run '^(TestSteadyStateRound|TestRunAllocsIndependentOfN)' -count=1 ./internal/congest/
	go test -run '^TestAlg1RunAllocs$$' -count=1 ./internal/core/

# Fuzz smoke: a 10s slice of native fuzzing over each decoder of external
# bytes — the distrib frame decoders (what a networked shard worker,
# cmd/misnode -listen tcp:, accepts from outside), the JSONL trace reader,
# the dynamic-MIS update-stream reader, the misvet baseline reader
# (cmd/misvet -baseline), and the edge-list parser and graph constructor
# (cmd/arbmis -stdin) — plus the engine's differential target, which runs
# byte-scripted programs under every driver and requires the pull, push
# and faulted delivery paths to agree. Any panic, hang, runaway
# allocation, broken round trip or cross-driver divergence fails it. go
# test fuzzes one target per run, hence seven runs.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzCrossDriver$$' -fuzztime 10s ./internal/congest/
	go test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/distrib/
	go test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/trace/
	go test -run '^$$' -fuzz '^FuzzReadStream$$' -fuzztime 10s ./internal/dynmis/
	go test -run '^$$' -fuzz '^FuzzLoadBaseline$$' -fuzztime 10s ./internal/lint/
	go test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzNewGraph$$' -fuzztime 10s ./internal/graph/

# The benchmark's own suite (perfbench is a separate module, outside the
# root `go test ./...`): p90 op-count rule, input determinism, tiny-size
# pinned digests for all four workloads, argument checks. Fast (~0.1s
# after the build); runs in ci.
perfbench-test:
	cd perfbench && go test ./...

# Scaling smoke: the E19 slice of the cores × n matrix at test size —
# sequential + pool at two worker counts, fingerprints forced identical
# (any divergence fails the run). Fast (< 1s); runs in ci. The full
# production trajectory is `make bench-scale`.
scale-smoke:
	go run ./cmd/bench -quick -only E19

# Dynamic-MIS smoke: the E20 slice at test size — incremental repair vs
# full recompute on a generated update stream, with the sequential/pool
# stream-fingerprint equality enforced inside the driver. Fast (< 1s);
# runs in ci. The full trajectory is `make bench-dynmis`.
dynmis-smoke:
	go run ./cmd/bench -quick -only E20

# Distributed-driver smoke: the E21 slice at test size — shard workers in
# separate OS processes over unix sockets, every fleet shape forced to
# reproduce the sequential fingerprint bit-for-bit, clean and faulted.
# Fast (< 2s); runs in ci. The full trajectory is `make bench-dist`.
dist-smoke:
	go run ./cmd/bench -quick -only E21

# Full pre-merge gate: build (cmd/traceview included via ./...) + tests,
# repo-wide vet, the gofmt gate, the misvet analyzer suite, race-detector
# pass, coverage floors, allocation gates, decoder fuzz smoke, the
# benchmark's own suite, multicore-scaling smoke, dynamic-MIS smoke,
# distributed-driver smoke.
ci: test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test scale-smoke dynmis-smoke dist-smoke

# Refresh the seed-pinned driver throughput trajectory consumed by future
# PRs (rounds/sec and messages/sec per driver at n = 2^14).
bench-engine:
	go run ./cmd/bench -engine-bench BENCH_congest.json

# Refresh the seed-pinned fault-tolerance sweep (safety must hold at every
# fault intensity; rounds and coverage are the recorded trajectory).
bench-faults:
	go run ./cmd/bench -faults BENCH_faults.json

# Refresh the seed-pinned tracing-overhead trajectory (E17: the ring
# recorder must stay within 15% wall-clock overhead at n = 2^14 on the
# pool driver; off / ring / JSONL are the recorded modes).
bench-trace:
	go run ./cmd/bench -trace-bench BENCH_trace.json

# Refresh the seed-pinned allocation trajectory (E18: allocations and
# bytes per run, allocations per message, messages/sec per driver at
# n = 2^14, with the sequential speedup over the PR-1 BENCH_congest.json
# baseline embedded in the artifact).
bench-alloc:
	go run ./cmd/bench -alloc-bench BENCH_alloc.json -alloc-baseline BENCH_congest.json

# Refresh the seed-pinned cores × n scaling trajectory (E19 / DESIGN.md
# S27: sequential + pool at workers ∈ {1,2,4,8,GOMAXPROCS} across
# n ∈ {2^18, 2^20, 2^22}, every cell's clean and faulted fingerprints
# forced bit-identical). GOMAXPROCS is raised to the widest request for
# the run; on fewer physical cores the wall-clock curve is hardware-bound
# and the artifact records num_cpu so the bound is visible.
bench-scale:
	go run ./cmd/bench -scale-bench BENCH_scale.json

# Refresh the seed-pinned dynamic-MIS trajectory (E20 / DESIGN.md S28:
# incremental-repair vs full-recompute throughput and the repaired-region
# size distribution on low-locality streams over tree and union-of-trees
# at n ∈ {2^12, 2^14, 2^16}). The n = 2^16 rows must beat full
# recomputation by ≥ 10x or the run fails; the sequential and pool
# drivers must agree on every stream fingerprint.
bench-dynmis:
	go run ./cmd/bench -dynmis-bench BENCH_dynmis.json

# Refresh the seed-pinned distributed-driver trajectory (E21: fleet shapes
# shards ∈ {1,2,4,8} at n = 2^10, each a set of worker OS processes over
# unix sockets; every shape must reproduce the sequential run's
# deterministic fingerprint bit-for-bit, clean and faulted, or the run
# fails; frame bytes and round-trip latency per round are the recorded
# transport cost).
bench-dist:
	go run ./cmd/bench -dist-bench BENCH_dist.json

# Engine driver micro-benchmarks (ns/round per driver at n = 2^11, 2^14).
bench:
	go test -run '^$$' -bench BenchmarkEngineDrivers -benchmem .
