// Tracing integration suite: a traced run must be bit-identical to an
// untraced one, deterministic trace events must be bit-identical across
// every driver, a recorded golden trace must not drift across PRs,
// and trace.Bisect must pinpoint an injected single-event divergence to
// its exact round. Together with crossdriver_test.go this makes the
// event stream part of the engine's determinism contract.
package congest_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/ftmetivier"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// tracedRun executes one program with a fresh MemorySink attached and
// returns the statuses, result, and captured events.
func tracedRun(t *testing.T, g *graph.Graph, opts congest.Options,
	run func(*graph.Graph, congest.Options) ([]base.Status, congest.Result, error)) ([]base.Status, congest.Result, []trace.Event) {
	t.Helper()
	mem := &trace.MemorySink{}
	opts.Events = mem
	st, res, err := run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, res, mem.Events
}

// TestTracedRunBitIdentical is the "tracing is observational" guarantee:
// attaching a sink must not change the run — same Result, same statuses —
// under every driver, clean and faulted.
func TestTracedRunBitIdentical(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	cases := []struct {
		name string
		opts congest.Options
		run  func(*graph.Graph, congest.Options) ([]base.Status, congest.Result, error)
	}{
		{"metivier", congest.Options{Seed: 33}, metivier.Run},
		{"ftmetivier-faulted", congest.Options{
			Seed:      33,
			Faults:    faultsim.Compose(faultsim.BernoulliDrop{P: 0.08}, faultsim.DelayK{K: 2}),
			MaxRounds: 400,
		}, ftmetivier.Run},
	}
	for _, tc := range cases {
		for _, d := range driverMatrix {
			plain := tc.opts
			d.set(&plain)
			wantSt, wantRes, err := tc.run(g, plain)
			if err != nil {
				t.Fatal(err)
			}
			gotSt, gotRes, events := tracedRun(t, g, plain, tc.run)
			if gotRes != wantRes {
				t.Fatalf("%s/%s: traced Result %+v != untraced %+v", tc.name, d.name, gotRes, wantRes)
			}
			for v := range wantSt {
				if gotSt[v] != wantSt[v] {
					t.Fatalf("%s/%s: node %d status changed under tracing", tc.name, d.name, v)
				}
			}
			if len(events) == 0 {
				t.Fatalf("%s/%s: no events recorded", tc.name, d.name)
			}
		}
	}
}

// TestCrossDriverTraceFingerprints asserts the deterministic event stream
// is bit-identical across all drivers: same events, same order, same
// fingerprint — with Bisect producing the divergence report on failure.
func TestCrossDriverTraceFingerprints(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	plan := faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.05},
		faultsim.NewCrashRestart(map[int]faultsim.Window{7: {Down: 3, Up: 12}, 99: {Down: 5, Up: 0}}),
	)
	cases := []struct {
		name string
		opts congest.Options
		run  func(*graph.Graph, congest.Options) ([]base.Status, congest.Result, error)
	}{
		{"metivier-clean", congest.Options{Seed: 5}, metivier.Run},
		{"ftmetivier-faulted", congest.Options{Seed: 5, Faults: plan, MaxRounds: 400}, ftmetivier.Run},
	}
	for _, tc := range cases {
		var refName string
		var refEvents []trace.Event
		for _, d := range driverMatrix {
			opts := tc.opts
			d.set(&opts)
			_, _, events := tracedRun(t, g, opts, tc.run)
			if refName == "" {
				refName, refEvents = d.name, events
				continue
			}
			if div := trace.Bisect(refEvents, events); div != nil {
				t.Fatalf("%s: %s vs %s: %v", tc.name, refName, d.name, div)
			}
			if fa, fb := trace.Fingerprint(refEvents), trace.Fingerprint(events); fa != fb {
				t.Fatalf("%s: fingerprint %#x under %s, %#x under %s", tc.name, fa, refName, fb, d.name)
			}
		}
	}
}

// TestGoldenTraceFingerprint pins the deterministic trace of one fixed
// run — metivier, n = 256, seed 77 — under every driver. Any engine or
// program change that perturbs the event stream must update this value
// deliberately (re-derive by running with -v and reading the log line).
func TestGoldenTraceFingerprint(t *testing.T) {
	const wantFingerprint = uint64(0x1b0f6b6bc6528157)
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	for _, d := range driverMatrix {
		opts := congest.Options{Seed: 77}
		d.set(&opts)
		rec := trace.NewRecorder()
		opts.Events = rec
		if _, _, err := metivier.Run(g, opts); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		t.Logf("%s: fingerprint %#x over %d deterministic events", d.name, rec.Fingerprint(), rec.DeterministicCount())
		if rec.Fingerprint() != wantFingerprint {
			t.Fatalf("%s: trace fingerprint %#x, want %#x", d.name, rec.Fingerprint(), wantFingerprint)
		}
	}
}

// TestBisectPinpointsInjectedDivergence records a real run, corrupts a
// single deterministic event mid-trace, and requires Bisect to name
// exactly that round and event — the issue's acceptance scenario.
func TestBisectPinpointsInjectedDivergence(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	_, _, ref := tracedRun(t, g, congest.Options{Seed: 9}, metivier.Run)

	det := trace.Deterministic(ref)
	corrupt := append([]trace.Event(nil), ref...)
	// Corrupt the middle deterministic event (skipping round 0 markers).
	var target trace.Event
	pos := -1
	for i, mid := 0, len(det)/2; i < len(corrupt); i++ {
		if corrupt[i].Type.Deterministic() {
			if mid == 0 {
				pos, target = i, corrupt[i]
				break
			}
			mid--
		}
	}
	if pos < 0 {
		t.Fatal("no deterministic event to corrupt")
	}
	corrupt[pos].X += 1000

	div := trace.Bisect(ref, corrupt)
	if div == nil {
		t.Fatal("corruption not detected")
	}
	if div.Round != int(target.Round) {
		t.Fatalf("divergence blamed on round %d, corrupted round %d (event %v)", div.Round, target.Round, target)
	}
	if div.A == nil || div.B == nil || *div.A != target || div.B.X != target.X+1000 {
		t.Fatalf("wrong events reported: %v", div)
	}
}

// TestReplayAgainstRecordedTrace replays a program against its own
// recorded trace (must match) and against a different seed's trace (must
// diverge, with a well-formed report).
func TestReplayAgainstRecordedTrace(t *testing.T) {
	n := 128
	g := gen.UnionOfTrees(n, 2, rng.New(4))
	_, _, ref := tracedRun(t, g, congest.Options{Seed: 42}, metivier.Run)

	runWithSeed := func(seed uint64) func(trace.Sink) error {
		return func(s trace.Sink) error {
			_, _, err := metivier.Run(g, congest.Options{Seed: seed, Events: s})
			return err
		}
	}
	div, err := trace.Replay(ref, runWithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("same-seed replay diverged: %v", div)
	}
	div, err = trace.Replay(ref, runWithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("different-seed replay did not diverge")
	}
	if div.A == nil && div.B == nil {
		t.Fatalf("divergence carries no events: %v", div)
	}
}

// TestNodeStateEventsMatchStatuses cross-checks the program-emitted
// node-state events against the run's actual output: every joined vertex
// must be StatusInMIS and vice versa.
func TestNodeStateEventsMatchStatuses(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	st, _, events := tracedRun(t, g, congest.Options{Seed: 3}, metivier.Run)
	joined := map[int32]bool{}
	for _, e := range events {
		if e.Type == trace.EvNodeState && e.X == 1 { // proto.KindJoined
			if joined[e.V] {
				t.Fatalf("vertex %d joined twice", e.V)
			}
			joined[e.V] = true
		}
	}
	for v, s := range st {
		if (s == base.StatusInMIS) != joined[int32(v)] {
			t.Fatalf("vertex %d: status %v but joined=%v", v, s, joined[int32(v)])
		}
	}
}
