package congest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// steadyBroadcaster broadcasts every round and never halts — the
// steady-state message load the allocation gate measures.
type steadyBroadcaster struct{}

func (steadyBroadcaster) Init(ctx *Context)               { ctx.Broadcast(rawWire(8)) }
func (steadyBroadcaster) Round(ctx *Context, _ []Message) { ctx.Broadcast(rawWire(8)) }

// ringGraph builds a cycle on n vertices.
func ringGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	edges[n-1] = graph.Edge{U: 0, V: n - 1}
	return graph.MustNew(n, edges)
}

// delayEveryFourth delays every fourth message by two rounds and never
// drops or crashes anything, exercising the delay-bucket free list without
// consuming randomness.
type delayEveryFourth struct{ n int }

func (d *delayEveryFourth) Message(_, _, _ int, _ *rng.RNG) faultsim.Fate {
	d.n++
	if d.n%4 == 0 {
		return faultsim.Fate{Delay: 2}
	}
	return faultsim.Fate{}
}

func (*delayEveryFourth) Vertex(int, int) faultsim.VertexFate { return faultsim.VertexUp }

// slotBroadcaster sends to every neighbor every round by a SendSlot loop
// and never halts: steadyBroadcaster's traffic in the per-neighbor shape,
// which always takes the record pull.
type slotBroadcaster struct{}

func (slotBroadcaster) Init(ctx *Context) { slotBroadcaster{}.Round(ctx, nil) }
func (slotBroadcaster) Round(ctx *Context, _ []Message) {
	for i := range ctx.Neighbors() {
		ctx.SendSlot(i, rawWire(8))
	}
}

// roundTally counts the rounds a steadyRounds body ran and how many of
// them took the broadcast pull.
type roundTally struct{ rounds, pulls int }

// steadyRounds returns runLoop's round body, step, for a whitebox state,
// one round per call, so an allocation gate measures rounds in isolation
// from run set-up, and tallies each round into tally. The shards are
// swept on the calling goroutine: the pool's worker barrier is driver
// plumbing, not allocation behavior, and each worker runs this sweep.
func steadyRounds(t *testing.T, r *Runner, st *execState, tally *roundTally) func() {
	round := 0
	sweep := func(round int) {
		for _, sh := range st.shards {
			sh.sweep(round, st.pull)
		}
	}
	return func() {
		if err := r.step(st, round, sweep, nil); err != nil {
			t.Fatal(err)
		}
		round++
		tally.rounds++
		if st.pull {
			tally.pulls++
		}
	}
}

// TestSteadyStateRoundZeroAllocs is the allocation gate for the value-typed
// message path: once the reused buffers (shard outboxes, the round's
// records, the inbox scratch) have grown to steady-state capacity, a full
// sequential round — sweep, delivery, live refresh, round bookkeeping —
// must allocate nothing, whether a round of Broadcast calls takes the
// broadcast pull, a round of SendSlot loops the record pull, or a faulted
// round with one vertex in 16 down draws its vertex fates into the
// shard's reused list.
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	const n = 1024
	down := make(map[int]faultsim.Window)
	for v := 0; v < n; v += 16 {
		down[v] = faultsim.Window{Down: 2, Up: 1 << 30}
	}
	for _, c := range []struct {
		name   string
		node   Node
		pull   bool
		faults faultsim.Plan
	}{
		{"broadcast", steadyBroadcaster{}, true, nil},
		{"sendslot", slotBroadcaster{}, false, nil}, // the record pull
		{"crash-restart", steadyBroadcaster{}, false, faultsim.NewCrashRestart(down)},
	} {
		r := NewRunner(ringGraph(n), func(int) Node { return c.node }, Options{Seed: 1, Faults: c.faults})
		var tally roundTally
		oneRound := steadyRounds(t, r, r.newExecState(1), &tally)
		// Warm up: round 0 (Init) plus a few steady rounds grow every
		// reused buffer to its final capacity.
		for i := 0; i < 4; i++ {
			oneRound()
		}
		tally = roundTally{}
		if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
			t.Fatalf("%s: steady-state sequential round allocates %v objects, want 0", c.name, avg)
		}
		want := 0
		if c.pull {
			want = tally.rounds
		}
		if tally.pulls != want {
			t.Fatalf("%s: %d of %d measured rounds took the broadcast pull, want %d", c.name, tally.pulls, tally.rounds, want)
		}
	}
}

// TestSteadyStateRoundZeroAllocsPullShards extends the gate to broadcast
// pull rounds on four pool shards: once the outboxes, frontiers and
// per-shard inbox scratch have reached steady-state capacity, a round whose
// inboxes every shard builds from its own rows must allocate nothing — and
// every measured round must have taken the broadcast pull.
func TestSteadyStateRoundZeroAllocsPullShards(t *testing.T) {
	const n = 1 << 13
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Driver: DriverPool,
	})
	var tally roundTally
	oneRound := steadyRounds(t, r, r.newExecState(4), &tally)
	for i := 0; i < 4; i++ {
		oneRound()
	}
	tally = roundTally{}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state broadcast-pull round on 4 shards allocates %v objects, want 0", avg)
	}
	if tally.pulls != tally.rounds || tally.rounds == 0 {
		t.Fatalf("%d of %d measured rounds took the broadcast pull, want all", tally.pulls, tally.rounds)
	}
}

// TestSteadyStateRoundZeroAllocsWithDelays extends the gate to the record
// pull under a fault plan: with a plan that only delays (never drops),
// steady-state rounds — fate walk, sort, split and the record pull of
// withheld pairs and late messages — must still allocate nothing once the
// delay buckets have cycled through the free list a few times.
func TestSteadyStateRoundZeroAllocsWithDelays(t *testing.T) {
	const n = 256
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Faults: &delayEveryFourth{},
	})
	oneRound := steadyRounds(t, r, r.newExecState(1), &roundTally{})
	// Longer warm-up: the delay map and its buckets need several rounds to
	// reach the steady population the free list then recycles.
	for i := 0; i < 12; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state delayed round allocates %v objects, want 0", avg)
	}
}

// runMallocs returns the fewest heap allocations one whole Run made over a
// few repetitions, each on a fresh Runner built outside the measurement
// (NewRunner's per-vertex node state is not the run's cost). The minimum
// filters runtime allocations that land in some repetitions and not in
// others.
func runMallocs(t *testing.T, g *graph.Graph, factory func(int) Node, opts Options) uint64 {
	t.Helper()
	best := ^uint64(0)
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		r := NewRunner(g, factory, opts)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// TestRunAllocsIndependentOfN is the run-level allocation gate: every
// per-run buffer is sized once at set-up from the CSR, so a whole Run —
// set-up, every round, teardown — makes a number of heap allocations that
// depends on the shard count, not on n. A broadcast-every-round program
// runs at n = 2^10 and n = 2^14 under the sequential driver, the pool and
// a fault plan; each run must stay within a small fixed budget, and the
// 16x larger graph may add only a handful (with the collector off the
// counts are equal; the extra few are the runtime's own, made by the GC
// cycles the larger run triggers).
func TestRunAllocsIndependentOfN(t *testing.T) {
	const (
		budget = 64 // allocations per whole Run
		growth = 8  // extra allocations allowed at n = 2^14 over n = 2^10
	)
	factory := func(int) Node { return &pingCounter{rounds: 4} }
	configs := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Driver: DriverSequential}},
		{"pool-2", Options{Driver: DriverPool, Workers: 2}},
		{"bernoulli", Options{Faults: faultsim.BernoulliDrop{P: 0.05}}},
	}
	small := gen.UnionOfTrees(1<<10, 2, rng.New(3))
	large := gen.UnionOfTrees(1<<14, 2, rng.New(3))
	for _, c := range configs {
		c.opts.Seed = 1
		lo := runMallocs(t, small, factory, c.opts)
		hi := runMallocs(t, large, factory, c.opts)
		t.Logf("%s: %d allocs at n=2^10, %d at n=2^14", c.name, lo, hi)
		if lo > budget || hi > budget {
			t.Errorf("%s: Run allocates %d (n=2^10) and %d (n=2^14) objects, budget %d", c.name, lo, hi, budget)
		}
		if hi > lo+growth {
			t.Errorf("%s: Run allocations grow with n: %d at n=2^10, %d at n=2^14 (allowed +%d)", c.name, lo, hi, growth)
		}
	}
}

// TestReboundRunAllocs is the rebinding gate: a Runner that Reset binds
// to a graph no larger than its last reuses every buffer of the last run,
// so a rebound run — Reset and Run — of a broadcast-every-round program
// on a union of two trees (n = 2^10, after a first run at n = 2^12) makes
// no allocation on the sequential driver, at most 16 on two pool shards,
// whose worker goroutines, channels and timing slots are the run's own,
// and at most 2 under 5% drops. The nodes come from one preallocated
// table, so the factory allocates nothing.
func TestReboundRunAllocs(t *testing.T) {
	large := gen.UnionOfTrees(1<<12, 2, rng.New(3))
	small := gen.UnionOfTrees(1<<10, 2, rng.New(4))
	nodes := make([]pingCounter, large.N())
	factory := func(v int) Node {
		nodes[v] = pingCounter{rounds: 4}
		return &nodes[v]
	}
	for _, c := range []struct {
		name   string
		opts   Options
		budget float64
	}{
		{"sequential", Options{}, 0},
		{"pool-2", Options{Driver: DriverPool, Workers: 2}, 16},
		{"bernoulli", Options{Faults: faultsim.BernoulliDrop{P: 0.05}}, 2},
	} {
		c.opts.Seed = 1
		r := NewRunner(large, factory, c.opts)
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset(small, factory, c.opts)
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per rebound run", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s: a rebound run makes %.0f allocations, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// runBytes returns the fewest bytes one whole Run allocated over a few
// repetitions, each on a fresh Runner built outside the measurement, with
// the collector off so no GC cycle's own allocations land in the count.
func runBytes(t *testing.T, g *graph.Graph, factory func(int) Node, opts Options) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		r := NewRunner(g, factory, opts)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// priorityFactory returns a priorityMIS factory that carves its nodes
// from chunks of 1024, as every program factory in the repository does
// through mis/base.Slab, so building n nodes costs n/1024 allocations.
func priorityFactory() func(int) Node {
	var free []priorityMIS
	return func(int) Node {
		if len(free) == 0 {
			free = make([]priorityMIS, 1024)
		}
		p := &free[0]
		free = free[1:]
		return p
	}
}

// TestRunBytesPerVertex is the run-level byte gate beside
// TestRunAllocsIndependentOfN: a whole Run holds no per-vertex object, so
// what it allocates per vertex is its run-wide tables — a 16-byte RNG
// stream, one 32-byte outbox record, a 4-byte entry in the record pull's
// per-sender Broadcast table and, on a reliable network, the broadcast
// pull's wire slot (24 bytes). A faulted run keeps no wire slots; it
// reserves the round's records (32 bytes per vertex), their 4-byte
// Broadcast index and n/8 8-byte withheld pairs. This row's 5% drops
// withhold about 0.2n pairs a round, so its withheld scratch outgrows the
// reservation by append. No run
// keeps an inbox arena or inbox counters: both pulls build each inbox in
// a per-shard scratch as long as the widest row. A broadcast-every-round
// program at n = 2^14 must stay within 79 bytes per vertex on a reliable
// network and 94 under drops.
//
// The distributed row runs priorityMIS under 2% drops through the
// coordinator on two in-process workers, so it counts both sides: the
// coordinator's recovery log — every round's send records, withheld
// pairs and fates, kept once — and each worker's nodes, stream table,
// outbox, Broadcast table and n-entry Broadcast index, built inside Run. The
// coordinator keeps no outbox and no inbox copies, and a worker ships its
// outbox as is.
func TestRunBytesPerVertex(t *testing.T) {
	const n = 1 << 14
	ping := func(int) Node { return &pingCounter{rounds: 4} }
	g := gen.UnionOfTrees(n, 2, rng.New(3))
	for _, c := range []struct {
		name    string
		factory func(int) Node
		opts    Options
		budget  float64 // bytes per vertex
	}{
		{"sequential", ping, Options{Driver: DriverSequential}, 79},
		{"pool-2", ping, Options{Driver: DriverPool, Workers: 2}, 79},
		{"bernoulli", ping, Options{Faults: faultsim.BernoulliDrop{P: 0.05}}, 94},
		{"distributed", nil, Options{Driver: DriverDistributed, Faults: faultsim.BernoulliDrop{P: 0.02}}, 216},
	} {
		c.opts.Seed = 1
		if c.factory == nil {
			c.factory = priorityFactory()
			c.opts.Fleet = &localFleet{g: g, shards: 2, factory: c.factory}
		}
		perVertex := float64(runBytes(t, g, c.factory, c.opts)) / n
		t.Logf("%s: %.1f B/vertex at n=2^14", c.name, perVertex)
		if perVertex > c.budget {
			t.Errorf("%s: Run allocates %.1f bytes per vertex, budget %.0f", c.name, perVertex, c.budget)
		}
	}
}

// TestDistributedRunnerBuildsNoNodes builds a DriverDistributed Runner
// with a nil factory: a distributed run's nodes live in its workers, so
// NewRunner must call no factory and allocate only the Runner and its n
// output words. Run on two in-process workers, its Export words must equal
// the sequential run's.
func TestDistributedRunnerBuildsNoNodes(t *testing.T) {
	const n = 1 << 10
	g := gen.UnionOfTrees(n, 2, rng.New(3))
	opts := Options{Seed: 1, Driver: DriverDistributed, Fleet: &localFleet{g: g, shards: 2, factory: priorityFactory()}}
	if allocs := testing.AllocsPerRun(10, func() { NewRunner(g, nil, opts) }); allocs > 2 {
		t.Fatalf("NewRunner under DriverDistributed made %.0f allocations, want at most 2: the Runner and its output words", allocs)
	}
	seq := NewRunner(g, priorityFactory(), Options{Seed: 1})
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(g, nil, opts)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res != seqRes {
		t.Fatalf("distributed %+v != sequential %+v", res, seqRes)
	}
	for v := 0; v < n; v++ {
		if got, want := r.Export(v), seq.Export(v); got != want {
			t.Fatalf("vertex %d: distributed exported %d, sequential %d", v, got, want)
		}
	}
}
