package congest

import (
	"runtime"
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

// TestSteadyStateRoundZeroAllocs is the allocation gate for the value-typed
// message path: once the reused buffers (shard outboxes, the inbox arena)
// have grown to steady-state capacity, a full sequential round — sweep,
// delivery, live refresh, round bookkeeping — must allocate nothing. It
// drives the exact per-round body of runLoop whitebox so the measurement
// isolates rounds from run setup.
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{Seed: 1})
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	// Warm up: round 0 (Init) plus a few steady rounds grow every reused
	// buffer to its final capacity.
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state sequential round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsBucketed extends the gate to the pool
// driver's destination-bucketed delivery (deliverBuckets/mergeBucket):
// once the per-destination buckets, frontiers, and arena have grown to
// steady-state capacity, a bucketed round must allocate nothing. The
// shards are swept on the test goroutine (the worker barrier is driver
// plumbing, not allocation behavior) and the coordinator-loop merge runs,
// which is byte-for-byte the same merge the workers execute in parallel.
func TestSteadyStateRoundZeroAllocsBucketed(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:     1,
		Parallel: true,
	})
	st := r.newExecState(4)
	if st.buckets != 4 {
		t.Fatalf("expected bucketed delivery (buckets=4), got %d", st.buckets)
	}
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state bucketed round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsRelabeled extends the gate to a
// non-identity layout: with the BFS relabeling active, every round runs
// the external↔internal translation path (extID, the dual
// neighbors/targets context slices) and must still allocate nothing.
func TestSteadyStateRoundZeroAllocsRelabeled(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Layout: "bfs",
	})
	if r.layoutErr != nil {
		t.Fatal(r.layoutErr)
	}
	if r.perm == nil {
		t.Fatal("bfs layout on a ring should produce a non-identity permutation")
	}
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state relabeled round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsWithDelays extends the gate to the faulted
// delivery path: with a plan that only delays (never drops), steady-state
// rounds must still allocate nothing once the delay buckets have cycled
// through the free list a few times.
func TestSteadyStateRoundZeroAllocsWithDelays(t *testing.T) {
	const n = 256
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:     1,
		DropProb: 0, // keep the legacy knob off; the plan below is the fault model
		Faults:   &delayEveryFourth{},
	})
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
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
// runs at n = 2^10 and n = 2^14 under the sequential driver, the pool, a
// fault plan and a non-identity layout; each run must stay within a small
// fixed budget, and the 16x larger graph may add only a handful (with the
// collector off the counts are equal; the extra few are the runtime's own,
// made by the GC cycles the larger run triggers).
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
		{"degsort", Options{Layout: "degsort"}},
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
