# Developer entry points. The repo is plain `go build`-able; these targets
# just name the workflows CI and PRs rely on.

.PHONY: build test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test ci bench

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

# Full pre-merge gate: build (cmd/traceview included via ./...) + tests,
# repo-wide vet, the gofmt gate, the misvet analyzer suite, race-detector
# pass, coverage floors, allocation gates, decoder fuzz smoke and the
# benchmark's own suite. Cross-driver identity (sequential, pool and
# multi-process fleets, clean and faulted, static and dynamic graphs) is
# pinned by tests under `go test ./...`; the benchmark itself is
# perfbench (BENCHMARK.json).
ci: test vet fmt misvet race cover alloc-gate fuzz-smoke perfbench-test

# Engine driver micro-benchmarks (ns/round per driver at n = 2^11, 2^14).
bench:
	go test -run '^$$' -bench BenchmarkEngineDrivers -benchmem .
