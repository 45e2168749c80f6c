package congest

import (
	"sort"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Outbox sizing suite: newExecState and NewShardWorker reserve every
// message buffer once, at the CONGEST bound of one message per directed
// edge per round, and a run must never need to grow them.

// equalCuts returns the range boundaries of k equal-width contiguous
// shards over n vertices, the partition newExecState starts from.
func equalCuts(n, k int) []int {
	cuts := make([]int, k+1)
	for s := range cuts {
		cuts[s] = s * n / k
	}
	return cuts
}

// rangeEdges returns the directed-edge count from each contiguous vertex
// range into each other one, for ranges [cuts[s], cuts[s+1]) — the
// capacities sizeOutboxes must reserve for a bucketed run on that
// partition; a row's sum is the single-bucket reservation.
func rangeEdges(g *graph.Graph, cuts []int) [][]int {
	k := len(cuts) - 1
	rangeOf := func(v int) int { return sort.SearchInts(cuts[1:], v+1) }
	counts := make([][]int, k)
	for s := range counts {
		counts[s] = make([]int, k)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			counts[rangeOf(u)][rangeOf(v)]++
		}
	}
	return counts
}

func rowSum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TestOutboxCapsMatchEdgeCounts checks the set-up reservation: a bucketed
// pool run gives bucket (s, d) exactly the directed edges from shard s into
// shard d; single-bucket runs give each shard its degree sum.
func TestOutboxCapsMatchEdgeCounts(t *testing.T) {
	const workers = 4
	g := gen.PreferentialAttachment(4096, 4, rng.New(2))
	want := rangeEdges(g, equalCuts(g.N(), workers))

	st := NewRunner(g, haltFactory, Options{Seed: 1, Driver: DriverPool, Workers: workers}).newExecState(workers)
	if st.buckets != workers {
		t.Fatalf("buckets = %d, want %d", st.buckets, workers)
	}
	for s, sh := range st.shards {
		for d, out := range sh.out {
			if len(out) != 0 || cap(out) != want[s][d] {
				t.Fatalf("bucket %d→%d: len %d cap %d, want len 0 cap %d", s, d, len(out), cap(out), want[s][d])
			}
		}
	}

	faulted := Options{Seed: 1, Driver: DriverPool, Workers: workers, Faults: faultsim.BernoulliDrop{P: 0.1}}
	st = NewRunner(g, haltFactory, faulted).newExecState(workers)
	for s, sh := range st.shards {
		if len(sh.out) != 1 || cap(sh.out[0]) != rowSum(want[s]) {
			t.Fatalf("faulted shard %d: %d buckets, cap %d, want 1 bucket of the degree sum %d", s, len(sh.out), cap(sh.out[0]), rowSum(want[s]))
		}
	}
}

// priorityMIS is a compact Métivier MIS for whitebox tests (the real one in
// internal/mis/metivier imports this package). Each iteration takes three
// rounds: broadcast a fresh priority, local maxima join and announce, their
// neighbors retire and announce. With double set, every broadcast is sent
// twice — past the reserved capacity. It remembers the shard that ran its
// Init so a test can inspect every shard's buffers after the run, and it
// implements Porter so the distributed driver can run it.
type priorityMIS struct {
	double bool
	prio   uint64
	inMIS  bool
	shard  *shard
}

const (
	kindPrio WireKind = 1 + iota
	kindJoined
	kindRemoved
)

func (p *priorityMIS) send(ctx *Context, w Wire) {
	ctx.Broadcast(w)
	if p.double {
		ctx.Broadcast(w)
	}
}

func (p *priorityMIS) compete(ctx *Context) {
	p.prio = ctx.RNG().Uint64()
	p.send(ctx, Wire{Kind: kindPrio, Bits: 64, A: p.prio})
}

func (p *priorityMIS) Init(ctx *Context) {
	p.shard = ctx.shard
	p.compete(ctx)
}

func (p *priorityMIS) Round(ctx *Context, inbox []Message) {
	switch ctx.Round() % 3 {
	case 1:
		for _, m := range inbox {
			if m.Wire.Kind == kindPrio && (m.Wire.A > p.prio || (m.Wire.A == p.prio && m.From > ctx.ID())) {
				return
			}
		}
		p.inMIS = true
		p.send(ctx, Wire{Kind: kindJoined, Bits: 1})
		ctx.Halt()
	case 2:
		for _, m := range inbox {
			if m.Wire.Kind == kindJoined {
				p.send(ctx, Wire{Kind: kindRemoved, Bits: 1})
				ctx.Halt()
				return
			}
		}
	case 0:
		p.compete(ctx)
	}
}

func (p *priorityMIS) ExportState() uint64 {
	if p.inMIS {
		return 1
	}
	return 0
}

func (p *priorityMIS) ImportState(x uint64) { p.inMIS = x == 1 }

// runShards runs priorityMIS on g and returns the run's shards (collected
// from the nodes, ordered by index) and the number of rebalances it
// performed.
func runShards(t *testing.T, g *graph.Graph, opts Options) ([]*shard, int64) {
	t.Helper()
	rebalances := int64(0)
	opts.Events = countingSink{rec: trace.NewRecorder(0), rebalances: &rebalances}
	r := NewRunner(g, func(int) Node { return &priorityMIS{} }, opts)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[*shard]bool{}
	var shards []*shard
	for _, nd := range r.nodes {
		if sh := nd.(*priorityMIS).shard; !seen[sh] {
			seen[sh] = true
			shards = append(shards, sh)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].idx < shards[j].idx })
	return shards, rebalances
}

// TestOutboxCapsStableOverRun runs a whole Métivier MIS under the bucketed
// pool with rebalancing live, the sequential driver, a faulted pool and the
// goroutine-per-vertex driver, and requires every outbox bucket to end the
// run with exactly the capacity sizeOutboxes reserves for the final shard
// ranges: no round outgrew the one-message-per-edge bound. Métivier keeps
// a plain preferential-attachment graph balanced, so the graph puts one on
// the low half of the IDs and leaves the high half isolated: those
// vertices join in round 1, the high shards drain, and the pool re-cuts
// its ranges mid-run — the buckets must follow the re-cut, not grow.
func TestOutboxCapsStableOverRun(t *testing.T) {
	const n = 1 << 13
	g := graph.MustNew(n, gen.PreferentialAttachment(n/2, 4, rng.New(4)).Edges())
	cases := []struct {
		name   string
		opts   Options
		shards int
	}{
		{"pool-4", Options{Driver: DriverPool, Workers: 4}, 4},
		{"sequential", Options{Driver: DriverSequential}, 1},
		{"faulted-pool-4", Options{Driver: DriverPool, Workers: 4, Faults: faultsim.BernoulliDrop{P: 0.05}, MaxRounds: 500}, 4},
		{"goroutine-per-vertex", Options{Driver: DriverGoroutinePerVertex}, n},
	}
	for _, c := range cases {
		c.opts.Seed = 6
		shards, rebalances := runShards(t, g, c.opts)
		if len(shards) != c.shards {
			t.Fatalf("%s: collected %d shards, want %d", c.name, len(shards), c.shards)
		}
		if c.opts.Driver == DriverPool && rebalances == 0 {
			t.Fatalf("%s: the rebalancer never fired", c.name)
		}
		cuts := []int{0}
		for _, sh := range shards {
			cuts = append(cuts, sh.hi)
		}
		want := rangeEdges(g, cuts)
		for s, sh := range shards {
			for d, out := range sh.out {
				w := rowSum(want[s])
				if len(sh.out) > 1 {
					w = want[s][d]
				}
				if cap(out) != w {
					t.Fatalf("%s: bucket %d→%d ended the run at cap %d, reserved %d", c.name, s, d, cap(out), w)
				}
			}
		}
	}
}

// localFleet serves a distributed run from in-process ShardWorkers, so a
// test can drive the distributed coordinator with a program the worker
// registry does not know and inspect the workers' buffers afterwards.
type localFleet struct {
	g       *graph.Graph
	shards  int
	factory func(int) Node
	workers []*ShardWorker
}

func (f *localFleet) NumShards() int { return f.shards }

func (f *localFleet) Shard(cfg ShardConfig) (ShardConn, error) {
	w, err := NewShardWorker(cfg, f.g.Neighbors, f.factory)
	if err != nil {
		return nil, err
	}
	f.workers = append(f.workers, w)
	return &localConn{w: w}, nil
}

// localConn sweeps on Send (the input's slices are only valid during the
// call) and hands the output back on Recv.
type localConn struct {
	w   *ShardWorker
	out RoundOutput
	err error
}

func (c *localConn) Send(in RoundInput) error {
	c.out, c.err = c.w.Sweep(in)
	return nil
}

func (c *localConn) Recv() (RoundOutput, error) { return c.out, c.err }
func (c *localConn) Outputs() ([]uint64, error) { return c.w.Outputs(), nil }
func (c *localConn) Close() error               { return nil }

// TestShardWorkerCapsStableAcrossSweeps runs Métivier through the
// distributed coordinator on in-process workers: each worker's outbox and
// packet buffers are reserved at its range's degree sum and must keep that
// capacity across every Sweep. The same program sending twice per edge
// overflows the reservation and must still match the sequential driver,
// decision for decision, with exactly twice the traffic.
func TestShardWorkerCapsStableAcrossSweeps(t *testing.T) {
	g := gen.PreferentialAttachment(1<<12, 4, rng.New(9))
	run := func(double bool, opts Options) (Result, []uint64, *localFleet) {
		t.Helper()
		factory := func(int) Node { return &priorityMIS{double: double} }
		var fleet *localFleet
		if opts.Driver == DriverDistributed {
			fleet = &localFleet{g: g, shards: 3, factory: factory}
			opts.Fleet = fleet
		}
		opts.Seed = 12
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, g.N())
		for v := range out {
			out[v] = r.Node(v).(Porter).ExportState()
		}
		return res, out, fleet
	}

	seqRes, seqOut, _ := run(false, Options{Driver: DriverSequential})
	res, out, fleet := run(false, Options{Driver: DriverDistributed})
	if res != seqRes {
		t.Fatalf("distributed %+v != sequential %+v", res, seqRes)
	}
	for v := range out {
		if out[v] != seqOut[v] {
			t.Fatalf("vertex %d: distributed state %d, sequential %d", v, out[v], seqOut[v])
		}
	}
	if len(fleet.workers) != 3 {
		t.Fatalf("fleet started %d workers, want 3", len(fleet.workers))
	}
	for _, w := range fleet.workers {
		want := 0
		for v := w.cfg.Lo; v < w.cfg.Hi; v++ {
			want += g.Degree(v)
		}
		if c := cap(w.sh.out[0]); c != want {
			t.Fatalf("worker %d: outbox cap %d after the run, reserved %d", w.cfg.Index, c, want)
		}
		if c := cap(w.pkts); c != want {
			t.Fatalf("worker %d: packet cap %d after the run, reserved %d", w.cfg.Index, c, want)
		}
	}

	dblRes, dblOut, _ := run(true, Options{Driver: DriverDistributed})
	if dblRes.Rounds != seqRes.Rounds || dblRes.Messages != 2*seqRes.Messages {
		t.Fatalf("double-send distributed %+v, want sequential rounds with twice its messages (%+v)", dblRes, seqRes)
	}
	for v := range dblOut {
		if dblOut[v] != seqOut[v] {
			t.Fatalf("vertex %d: double-send state %d, sequential %d", v, dblOut[v], seqOut[v])
		}
	}
}
