package congest_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/forest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/trace"
)

// randomDelay defers a message by K rounds with probability P, drawn from
// the run's fault stream.
type randomDelay struct {
	P float64
	K int
}

func (d randomDelay) Message(_, _, _ int, r *rng.RNG) faultsim.Fate {
	if r.Bool(d.P) {
		return faultsim.Fate{Delay: d.K}
	}
	return faultsim.Deliver
}

func (randomDelay) Vertex(int, int) faultsim.VertexFate { return faultsim.VertexUp }

// reboundProgram is one program TestReboundRunMatchesFresh runs: its
// factory for a graph, and the per-vertex word the test compares.
type reboundProgram struct {
	name    string
	factory func(g *graph.Graph) func(int) congest.Node
	output  func(r *congest.Runner, v int) uint64
}

// reboundPrograms lists every program in the distrib registry, plus
// Algorithm 1, matching and forest, whose nodes keep marks and send by
// SendSlot.
func reboundPrograms(t *testing.T) []reboundProgram {
	export := func(r *congest.Runner, v int) uint64 { return r.Export(v) }
	var progs []reboundProgram
	for _, name := range distrib.Algorithms() {
		progs = append(progs, reboundProgram{name, func(g *graph.Graph) func(int) congest.Node {
			prog := distrib.Program{Algorithm: name}
			if name == "colevishkin" {
				prog.Args = distrib.ColeVishkinArgs(g.BFSForest())
			}
			factory, err := distrib.Factory(prog, g.N())
			if err != nil {
				t.Fatal(err)
			}
			return factory
		}, export})
	}
	return append(progs,
		reboundProgram{"alg1", func(g *graph.Graph) func(int) congest.Node {
			return core.New(core.PracticalParams(2, g.MaxDegree()))
		}, export},
		reboundProgram{"matching", func(*graph.Graph) func(int) congest.Node { return matching.New() },
			func(r *congest.Runner, v int) uint64 {
				return uint64(r.Node(v).(interface{ Partner() int }).Partner())
			}},
		reboundProgram{"forest", func(g *graph.Graph) func(int) congest.Node { return forest.New(2, g.N()) }, export},
	)
}

// reboundOutcome is what TestReboundRunMatchesFresh compares.
type reboundOutcome struct {
	res   congest.Result
	err   string
	fp    uint64
	words []uint64
}

// runTraced runs r, bound to an n-vertex graph with a trace.Recorder
// attached as opts.Events, and collects its outcome.
func runTraced(r *congest.Runner, rec *trace.Recorder, n int, output func(*congest.Runner, int) uint64) reboundOutcome {
	res, err := r.Run()
	o := reboundOutcome{res: res, fp: rec.Fingerprint(), words: make([]uint64, n)}
	if err != nil {
		o.err = err.Error()
		return o
	}
	for v := range o.words {
		o.words[v] = output(r, v)
	}
	return o
}

// TestReboundRunMatchesFresh checks that Reset leaves nothing of the last
// run behind: a Runner that first runs a program on a larger graph, on
// the other in-process driver (so the shard count changes both ways),
// under drops, delays and crashes that leave vertex fates and messages
// pending, and is then rebound to the test graph must give a fresh
// Runner's Result, error, per-vertex words and trace fingerprint —
// sequentially and on two pool shards, each clean (a faulted-to-clean
// rebinding) and under drops and delays.
func TestReboundRunMatchesFresh(t *testing.T) {
	small := gen.UnionOfTrees(300, 2, rng.New(7))
	large := gen.UnionOfTrees(700, 2, rng.New(8))
	lossy := func() faultsim.Plan {
		return faultsim.Compose(faultsim.BernoulliDrop{P: 0.05}, randomDelay{P: 0.1, K: 2})
	}
	down := faultsim.NewCrashRestart(map[int]faultsim.Window{
		3: {Down: 2, Up: 1 << 30}, 150: {Down: 2, Up: 1 << 30}, 299: {Down: 2, Up: 1 << 30}, 640: {Down: 2, Up: 1 << 30},
	})
	setups := []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{}},
		{"pool-2", congest.Options{Driver: congest.DriverPool, Workers: 2}},
		{"sequential-lossy", congest.Options{Faults: lossy()}},
		{"pool-2-lossy", congest.Options{Driver: congest.DriverPool, Workers: 2, Faults: lossy()}},
	}
	for _, p := range reboundPrograms(t) {
		for _, s := range setups {
			s.opts.Seed, s.opts.MaxRounds = 11, 300 // a program drops can stall ends in an error, which must match too
			rec := trace.NewRecorder()
			s.opts.Events = rec
			want := runTraced(congest.NewRunner(small, p.factory(small), s.opts), rec, small.N(), p.output)

			// The first run: the other driver, a delay on every message,
			// and vertices down from round 2 on, which never halt, so the
			// round limit ends it with vertex fates drawn and messages in
			// flight.
			first := congest.Options{Seed: 3, MaxRounds: 30, Events: trace.NewRecorder(),
				Faults: faultsim.Compose(faultsim.BernoulliDrop{P: 0.05}, faultsim.DelayK{K: 2}, down)}
			if s.opts.Driver != congest.DriverPool {
				first.Driver, first.Workers = congest.DriverPool, 2
			}
			r := congest.NewRunner(large, p.factory(large), first)
			_, _ = r.Run() // its outcome is beside the point: what it leaves behind is
			rec = trace.NewRecorder()
			s.opts.Events = rec
			r.Reset(small, p.factory(small), s.opts)
			got := runTraced(r, rec, small.N(), p.output)
			if got.res != want.res || got.err != want.err || got.fp != want.fp {
				t.Fatalf("%s %s: rebound run %+v err %q fingerprint %#x; fresh %+v err %q fingerprint %#x",
					p.name, s.name, got.res, got.err, got.fp, want.res, want.err, want.fp)
			}
			for v := range want.words {
				if got.words[v] != want.words[v] {
					t.Fatalf("%s %s: vertex %d rebound word %d, fresh %d", p.name, s.name, v, got.words[v], want.words[v])
				}
			}
		}
	}
}
