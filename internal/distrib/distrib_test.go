// End-to-end suite for the distributed multi-process driver: every run
// here spawns real worker processes (the test binary re-execs itself via
// TestMain/MaybeWorker) and must be bit-identical with the sequential
// driver — statuses, Result counters, and deterministic trace
// fingerprints, clean and faulted, including runs where a worker is
// SIGKILLed mid-run and recovered from the replay log.
package distrib_test

import (
	"os"
	"strings"
	"syscall"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/forest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis/base"
	"repro/internal/mis/colevishkin"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestMain is the self-exec hook: when ExecFleet spawns this test binary
// as a shard worker, MaybeWorker serves the run and exits before any
// test runs.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// runSequential executes prog under the sequential driver with the same
// factory a worker constructs, as the reference for every comparison.
func runSequential(t *testing.T, g *graph.Graph, prog distrib.Program, opts congest.Options) ([]base.Status, congest.Result, error) {
	t.Helper()
	factory, err := distrib.Factory(prog, g.N())
	if err != nil {
		t.Fatal(err)
	}
	opts.Driver = congest.DriverSequential
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

// runFleet executes prog over g on a fresh self-exec fleet of the given
// shard count and closes the fleet afterwards. It returns the run's
// Result, its Runner and its error.
func runFleet(t *testing.T, g *graph.Graph, prog distrib.Program, shards int, opts congest.Options) (congest.Result, *congest.Runner, error) {
	t.Helper()
	fleet, err := distrib.NewExecFleet(g, prog, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	opts.Driver, opts.Fleet = congest.DriverDistributed, fleet
	r := congest.NewRunner(g, nil, opts)
	res, err := r.Run()
	return res, r, err
}

// runDistributed executes prog over a fresh self-exec fleet.
func runDistributed(t *testing.T, g *graph.Graph, prog distrib.Program, shards int, opts congest.Options) ([]base.Status, congest.Result, error) {
	t.Helper()
	res, r, err := runFleet(t, g, prog, shards, opts)
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

// compareRuns fails the test on any divergence between a sequential
// reference and a distributed run of the same program and options.
func compareRuns(t *testing.T, label string, g *graph.Graph, prog distrib.Program, shards int, opts congest.Options) {
	t.Helper()
	seqSt, seqRes, seqErr := runSequential(t, g, prog, opts)
	distSt, distRes, distErr := runDistributed(t, g, prog, shards, opts)
	if (seqErr == nil) != (distErr == nil) || (seqErr != nil && seqErr.Error() != distErr.Error()) {
		t.Fatalf("%s: sequential err %v, distributed err %v", label, seqErr, distErr)
	}
	if seqRes != distRes {
		t.Fatalf("%s: sequential Result %+v != distributed Result %+v", label, seqRes, distRes)
	}
	for v := range seqSt {
		if seqSt[v] != distSt[v] {
			t.Fatalf("%s: node %d status %v sequential, %v distributed", label, v, seqSt[v], distSt[v])
		}
	}
}

// TestDistributedMatchesSequentialClean sweeps every registry algorithm:
// a clean distributed run over real worker processes must reproduce the
// sequential driver's statuses and counters exactly.
func TestDistributedMatchesSequentialClean(t *testing.T) {
	n := 96
	union := gen.UnionOfTrees(n, 2, rng.New(12))
	forest := gen.RandomTree(n, rng.New(11))
	for _, name := range distrib.Algorithms() {
		prog := distrib.Program{Algorithm: name}
		g := union
		if name == "colevishkin" {
			g = forest
			prog.Args = distrib.ColeVishkinArgs(forest.BFSForest())
		}
		compareRuns(t, name, g, prog, 3, congest.Options{Seed: 77})
	}
}

// TestDistributedShardCounts checks the driver across degenerate and
// uneven fleet shapes: one shard, more shards than fits evenly, and more
// shards than vertices (the engine clamps; empty shards never spawn).
func TestDistributedShardCounts(t *testing.T) {
	prog := distrib.Program{Algorithm: "metivier"}
	g := gen.UnionOfTrees(40, 2, rng.New(5))
	for _, shards := range []int{1, 3, 7, 64} {
		compareRuns(t, "metivier/shards", g, prog, shards, congest.Options{Seed: 9})
	}
}

// TestDistributedFaulted runs the full faultsim plan spectrum through the
// distributed driver: fates and message faults are drawn on the
// coordinator, so faulted executions must stay bit-identical too.
func TestDistributedFaulted(t *testing.T) {
	n := 128
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	plan := faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.08},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			1:     {Down: 2, Up: 8},
			n / 2: {Down: 3, Up: 0},
			n - 1: {Down: 5, Up: 20},
		}),
		faultsim.DelayK{K: 3},
	)
	for _, alg := range []string{"metivier", "ftmetivier"} {
		prog := distrib.Program{Algorithm: alg}
		opts := congest.Options{Seed: 33, Faults: plan, MaxRounds: 400}
		compareRuns(t, alg+"/faulted", g, prog, 3, opts)
	}
}

// goldenFaultedPlan is the exact plan of the congest package's
// TestGoldenFaultedExecution; the distributed driver must reproduce the
// same pinned run.
func goldenFaultedPlan() faultsim.Plan {
	return faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.1},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			5:   {Down: 2, Up: 14},
			64:  {Down: 4, Up: 0},
			128: {Down: 6, Up: 0},
			200: {Down: 3, Up: 0},
		}),
	)
}

// goldenFaultedConstants are the pinned values shared with the congest
// golden suite. Any drift is a cross-PR determinism break.
const (
	goldenRounds      = 204
	goldenMIS         = 94
	goldenCrashed     = 3
	goldenFingerprint = uint64(0x6608fb1ead99f649)
)

// statusFingerprint matches the congest golden suite's pinning hash
// (FNV-1a over the status bytes).
func statusFingerprint(st []base.Status) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range st {
		h ^= uint64(byte(s))
		h *= prime64
	}
	return h
}

// checkGolden asserts a run reproduced the pinned golden faulted
// execution exactly.
func checkGolden(t *testing.T, label string, g *graph.Graph, st []base.Status, res congest.Result, plan faultsim.Plan) {
	t.Helper()
	if res.Rounds != goldenRounds {
		t.Fatalf("%s: rounds = %d, want %d", label, res.Rounds, goldenRounds)
	}
	crashed := faultsim.CrashedAt(plan, res.Rounds+1, g.N())
	rep, err := faultsim.Check(g, base.MISSet(st), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() {
		t.Fatalf("%s: independence violated: %v", label, rep.Violations)
	}
	if rep.InMIS != goldenMIS || rep.Crashed != goldenCrashed {
		t.Fatalf("%s: |MIS| = %d crashed = %d, want %d/%d", label, rep.InMIS, rep.Crashed, goldenMIS, goldenCrashed)
	}
	if fp := statusFingerprint(st); fp != goldenFingerprint {
		t.Fatalf("%s: status fingerprint %#x, want %#x", label, fp, goldenFingerprint)
	}
}

// TestDistributedGoldenFaulted extends the engine's pinned golden faulted
// execution to the distributed driver: n = 256 over four worker
// processes must land on the exact fingerprint every in-process driver
// pins.
func TestDistributedGoldenFaulted(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	plan := goldenFaultedPlan()
	prog := distrib.Program{Algorithm: "ftmetivier"}
	opts := congest.Options{Seed: 1234, Faults: plan, MaxRounds: 400}
	st, res, err := runDistributed(t, g, prog, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "distributed", g, st, res, plan)
}

// TestDistributedTraceFingerprint pins the deterministic event stream:
// a traced distributed run must produce the exact deterministic
// fingerprint of the traced sequential run — program events, halts, RNG
// accounting and round markers all cross the socket unchanged. The
// n = 1024 cases also pin that fingerprint, clean and under drops plus
// crash-restart windows, across fleets of 1, 2, 4 and 8 worker processes.
func TestDistributedTraceFingerprint(t *testing.T) {
	prog := distrib.Program{Algorithm: "metivier"}
	small := gen.UnionOfTrees(512, 2, rng.New(3))
	const n = 1024
	fleetGraph := gen.UnionOfTrees(n, 2, rng.New(1))
	plan := faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.02},
		faultsim.NewCrashRestart(map[int]faultsim.Window{1: {Down: 2, Up: 9}, n / 2: {Down: 3}}),
	)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		opts   congest.Options
		shards []int
		want   uint64 // 0: the sequential run is the only reference
	}{
		{"union-512", small, congest.Options{Seed: 42}, []int{3}, 0},
		{"fleets-clean", fleetGraph, congest.Options{Seed: 1}, []int{1, 2, 4, 8}, 0xee357cf0bb63a037},
		{"fleets-faulted", fleetGraph, congest.Options{Seed: 1, Faults: plan, MaxRounds: 4 * n}, []int{1, 2, 4, 8}, 0x6e8038d02cd3f2bf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory, err := distrib.Factory(prog, tc.g.N())
			if err != nil {
				t.Fatal(err)
			}
			seqRec := trace.NewRecorder()
			opts := tc.opts
			opts.Events = seqRec
			seqRes, err := congest.NewRunner(tc.g, factory, opts).Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != 0 && seqRec.Fingerprint() != tc.want {
				t.Fatalf("sequential fingerprint %#x, want %#x", seqRec.Fingerprint(), tc.want)
			}
			for _, shards := range tc.shards {
				distRec := trace.NewRecorder()
				opts.Events = distRec
				distRes, _, err := runFleet(t, tc.g, prog, shards, opts)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if seqRes != distRes {
					t.Fatalf("shards=%d: Result diverged: sequential %+v, distributed %+v", shards, seqRes, distRes)
				}
				if seqRec.Fingerprint() != distRec.Fingerprint() {
					t.Fatalf("shards=%d: deterministic fingerprint diverged: sequential %#x, distributed %#x",
						shards, seqRec.Fingerprint(), distRec.Fingerprint())
				}
				if seqRec.DeterministicCount() != distRec.DeterministicCount() {
					t.Fatalf("shards=%d: deterministic event count diverged: sequential %d, distributed %d",
						shards, seqRec.DeterministicCount(), distRec.DeterministicCount())
				}
			}
		})
	}
}

// killerSink is a trace sink that SIGKILLs a worker process when a pinned
// round starts, and counts the respawn events recovery emits.
type killerSink struct {
	killAt   int32
	pid      func() int
	fired    bool
	respawns int
}

func (k *killerSink) Emit(e trace.Event) {
	switch {
	case e.Type == trace.EvRoundStart && e.Round == k.killAt && !k.fired:
		k.fired = true
		if pid := k.pid(); pid > 0 {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	case e.Type == trace.EvRespawn:
		k.respawns++
	}
}

// TestDistributedCrashRecovery is the subsystem's headline guarantee: a
// shard worker SIGKILLed at a pinned round mid-run is respawned and
// fast-forwarded from the replay log, and the run ends exactly where an
// undisturbed one does. The golden faulted run must still converge to the
// pinned golden fingerprint. Two reliable runs must still match the
// sequential reference's Result and statuses: Métivier on four workers,
// whose logged inputs share each round's send records, and Luby B on two,
// whose respawned worker must rebuild its active-neighbour marks
// (congest.Context.Marks) from the replay, since its round-7 conflict
// test reads removals processed in rounds 3 and 6.
func TestDistributedCrashRecovery(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))

	plan := goldenFaultedPlan()
	st, res := runKilled(t, g, distrib.Program{Algorithm: "ftmetivier"},
		congest.Options{Seed: 1234, Faults: plan, MaxRounds: 400}, 4, 2, 57)
	checkGolden(t, "recovered", g, st, res, plan)

	for _, c := range []struct {
		prog                         distrib.Program
		shards, killShard, killRound int
	}{
		{distrib.Program{Algorithm: "metivier"}, 4, 1, 4},
		{distrib.Program{Algorithm: "luby-b"}, 2, 1, 7},
	} {
		opts := congest.Options{Seed: 1234}
		st, res := runKilled(t, g, c.prog, opts, c.shards, c.killShard, int32(c.killRound))
		seqSt, seqRes, err := runSequential(t, g, c.prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res != seqRes {
			t.Fatalf("recovered reliable %s run: Result %+v != sequential %+v", c.prog.Algorithm, res, seqRes)
		}
		for v := range seqSt {
			if seqSt[v] != st[v] {
				t.Fatalf("recovered reliable %s run: node %d status %v sequential, %v distributed", c.prog.Algorithm, v, seqSt[v], st[v])
			}
		}
	}
}

// runKilled runs prog on a fresh ExecFleet of the given size, SIGKILLs
// shard killShard's worker when round killRound starts, and requires the
// run to succeed through at least one respawn. It returns the statuses and
// the Result.
func runKilled(t *testing.T, g *graph.Graph, prog distrib.Program, opts congest.Options, shards, killShard int, killRound int32) ([]base.Status, congest.Result) {
	t.Helper()
	fleet, err := distrib.NewExecFleet(g, prog, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	killer := &killerSink{killAt: killRound, pid: func() int { return fleet.Pid(killShard) }}
	opts.Driver, opts.Fleet, opts.Events = congest.DriverDistributed, fleet, killer
	r := congest.NewRunner(g, nil, opts)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !killer.fired {
		t.Fatalf("kill hook never fired: run ended after %d rounds", res.Rounds)
	}
	if killer.respawns == 0 {
		t.Fatal("no respawn event observed: the killed worker was never recovered")
	}
	return base.Statuses(r, g.N()), res
}

// TestFleetReuse is the fleet-reuse guarantee: one ExecFleet serves
// several runs back-to-back over the same worker processes — a clean
// traced run, the pinned golden faulted run, and a clean run under a new
// seed — each reconfigured over the live connections, with no respawns in
// between, and every run bit-identical to its sequential reference.
func TestFleetReuse(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	prog := distrib.Program{Algorithm: "ftmetivier"}
	shards := 4
	fleet, err := distrib.NewExecFleet(g, prog, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1 (clean, traced): pins the deterministic event fingerprint
	// against a traced sequential run of the same options.
	distRec := trace.NewRecorder()
	r1 := congest.NewRunner(g, nil, congest.Options{
		Seed: 42, Events: distRec, Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res1, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	seqRec := trace.NewRecorder()
	seqRunner := congest.NewRunner(g, factory, congest.Options{Seed: 42, Events: seqRec})
	seqRes, err := seqRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1 != seqRes {
		t.Fatalf("run 1: Result %+v != sequential %+v", res1, seqRes)
	}
	if distRec.Fingerprint() != seqRec.Fingerprint() {
		t.Fatalf("run 1: fingerprint %#x != sequential %#x", distRec.Fingerprint(), seqRec.Fingerprint())
	}
	pids := make([]int, shards)
	for s := range pids {
		if pids[s] = fleet.Pid(s); pids[s] <= 0 {
			t.Fatalf("run 1: shard %d has no live worker", s)
		}
	}

	// Run 2 (faulted): the same processes must reproduce the pinned
	// golden faulted execution after in-place reconfiguration.
	plan := goldenFaultedPlan()
	r2 := congest.NewRunner(g, nil, congest.Options{
		Seed: 1234, Faults: plan, MaxRounds: 400,
		Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reused fleet", g, base.Statuses(r2, n), res2, plan)

	// Run 3 (new seed): reuse once more; the statuses must match the
	// sequential run of that seed.
	r3 := congest.NewRunner(g, nil, congest.Options{
		Seed: 4242, Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res3, err := r3.Run()
	if err != nil {
		t.Fatal(err)
	}
	seqSt, seqRes3, err := runSequential(t, g, prog, congest.Options{Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	if res3 != seqRes3 {
		t.Fatalf("run 3: Result %+v != sequential %+v", res3, seqRes3)
	}
	distSt := base.Statuses(r3, n)
	for v := range seqSt {
		if seqSt[v] != distSt[v] {
			t.Fatalf("run 3: node %d status %v sequential, %v distributed", v, seqSt[v], distSt[v])
		}
	}

	// All three runs must have ridden the same worker processes.
	for s := range pids {
		if got := fleet.Pid(s); got != pids[s] {
			t.Fatalf("shard %d respawned between runs: pid %d -> %d", s, pids[s], got)
		}
	}
}

// TestFrameEventsEmitted checks the coordinator publishes advisory
// EvFrame transport events when timing is requested, and that they stay
// out of the deterministic fingerprint.
func TestFrameEventsEmitted(t *testing.T) {
	n := 48
	g := gen.UnionOfTrees(n, 2, rng.New(2))
	prog := distrib.Program{Algorithm: "metivier"}
	var timed trace.MemorySink
	_, _, err := runFleet(t, g, prog, 2, congest.Options{Seed: 5, Events: &timed, EventTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	var bytesOut int64
	for _, e := range timed.Events {
		if e.Type == trace.EvFrame {
			frames++
			bytesOut += e.X
			if e.Type.Deterministic() {
				t.Fatal("EvFrame must be advisory, not deterministic")
			}
		}
	}
	if frames == 0 {
		t.Fatal("no EvFrame events observed with EventTiming on")
	}
	if bytesOut == 0 {
		t.Fatal("EvFrame events carried no transport volume")
	}

	// The same run untimed must fingerprint identically: EvFrame is
	// advisory and cannot leak into the deterministic stream.
	rec2 := trace.NewRecorder()
	_, _, err = runFleet(t, g, prog, 2, congest.Options{Seed: 5, Events: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if fp := trace.Fingerprint(timed.Events); fp != rec2.Fingerprint() {
		t.Fatalf("EventTiming changed the deterministic fingerprint: %#x vs %#x",
			fp, rec2.Fingerprint())
	}
}

// TestRunValidation covers the driver's refusal paths: a missing fleet, a
// bad algorithm name, and a malformed program argument must all surface
// as errors, never panics.
func TestRunValidation(t *testing.T) {
	g := gen.UnionOfTrees(16, 2, rng.New(1))
	r := congest.NewRunner(g, nil, congest.Options{Driver: congest.DriverDistributed})
	if _, err := r.Run(); err == nil {
		t.Fatal("DriverDistributed without a fleet must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "nope"}, 16); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "colevishkin"}, 16); err == nil {
		t.Fatal("colevishkin without parents must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "degreduce", Args: []uint64{0}}, 16); err == nil {
		t.Fatal("degreduce with zero iterations must fail")
	}
	if _, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "metivier"}, 0); err == nil {
		t.Fatal("zero-shard fleet must fail")
	}
}

// TestInProcessReadersRefuseDistributed runs the readers that take
// program-specific state off each node after a run — colevishkin.Colors,
// matching.Run, forest.Decompose and core.RunAlg1 — on the distributed
// driver, whose coordinator keeps one output word per vertex and no
// nodes: each must return an error naming the driver, never panic or hand
// back a wrong answer. The Colors row runs on a working colevishkin fleet.
func TestInProcessReadersRefuseDistributed(t *testing.T) {
	g := gen.RandomTree(64, rng.New(5))
	parent := g.BFSForest()
	fleet, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "colevishkin", Args: distrib.ColeVishkinArgs(parent)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	opts := congest.Options{Seed: 1, Driver: congest.DriverDistributed, Fleet: fleet}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"colevishkin.Colors", func() error { _, _, err := colevishkin.Colors(g, parent, opts); return err }},
		{"matching.Run", func() error { _, _, err := matching.Run(g, opts); return err }},
		{"forest.Decompose", func() error { _, _, err := forest.Decompose(g, 2, opts); return err }},
		{"core.RunAlg1", func() error { _, _, err := core.RunAlg1(g, core.PracticalParams(1, g.MaxDegree()), opts); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := c.run(); err == nil || !strings.Contains(err.Error(), "distributed") {
				t.Fatalf("returned %v, want an error naming the distributed driver", err)
			}
		})
	}
}
