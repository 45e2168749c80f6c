package congest

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Outbox sizing suite: newExecState and NewShardWorker reserve every
// outbox once. An outbox holds send calls, and so does a worker's packet
// export (a Broadcast ships as one record), so every shard — in-process
// or in a distributed worker — reserves one record per vertex of its
// range, and a broadcast-only program never outgrows it. The distributed
// coordinator sends nothing itself and reserves no outbox. A program that makes more send calls than reserved grows a full
// outbox in one step to the CONGEST bound of one message per directed
// edge per round.

// degreeSum returns the directed edges leaving the vertex range [lo, hi).
func degreeSum(g *graph.Graph, lo, hi int) int {
	t := 0
	for v := lo; v < hi; v++ {
		t += g.Degree(v)
	}
	return t
}

// TestOutboxCapsMatchEdgeCounts checks the set-up reservation: a shard's
// outbox is outbox[lo:lo:hi] of one n-entry array under every in-process
// driver, clean or faulted. The distributed coordinator's workers' packets
// go straight into the round's records, so it reserves no outbox at all.
func TestOutboxCapsMatchEdgeCounts(t *testing.T) {
	const workers = 4
	g := gen.PreferentialAttachment(4096, 4, rng.New(2))
	cases := []struct {
		name   string
		opts   Options
		shards int
	}{
		{"pool", Options{Driver: DriverPool, Workers: workers}, workers},
		{"faulted-pool", Options{Driver: DriverPool, Workers: workers, Faults: faultsim.BernoulliDrop{P: 0.1}}, workers},
		{"sequential", Options{Driver: DriverSequential}, 1},
		{"distributed", Options{Driver: DriverDistributed}, workers},
	}
	for _, c := range cases {
		c.opts.Seed = 1
		st := NewRunner(g, haltFactory, c.opts).newExecState(c.shards)
		if c.opts.Driver == DriverDistributed {
			for s, sh := range st.shards {
				if st.outbox != nil || sh.out != nil {
					t.Fatalf("%s: coordinator reserved an outbox (%d records; shard %d cap %d)", c.name, len(st.outbox), s, cap(sh.out))
				}
			}
			continue
		}
		if len(st.outbox) != g.N() {
			t.Fatalf("%s: outbox backing array holds %d records, want n = %d", c.name, len(st.outbox), g.N())
		}
		for s, sh := range st.shards {
			if len(sh.out) != 0 || cap(sh.out) != sh.hi-sh.lo {
				t.Fatalf("%s: shard %d [%d, %d): len %d cap %d, want len 0 cap %d", c.name, s, sh.lo, sh.hi, len(sh.out), cap(sh.out), sh.hi-sh.lo)
			}
			if &sh.out[:1][0] != &st.outbox[sh.lo] {
				t.Fatalf("%s: shard %d outbox is not carved at outbox[%d]", c.name, s, sh.lo)
			}
		}
	}
}

// priorityMIS is a compact Métivier MIS for whitebox tests (the real one in
// internal/mis/metivier imports this package). Each iteration takes three
// rounds: broadcast a fresh priority, local maxima join and announce, their
// neighbors retire and announce. With double set, every broadcast is sent
// twice — past the reserved capacity. With slots set, every broadcast is a
// SendSlot loop over the neighbor list instead of one Broadcast call. It
// remembers the shard that ran its Init so a test can inspect every
// shard's buffers after the run, and it implements Porter so the
// distributed driver can run it.
type priorityMIS struct {
	double bool
	slots  bool
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
	p.broadcast(ctx, w)
	if p.double {
		p.broadcast(ctx, w)
	}
}

func (p *priorityMIS) broadcast(ctx *Context, w Wire) {
	if !p.slots {
		ctx.Broadcast(w)
		return
	}
	for i := range ctx.Neighbors() {
		ctx.SendSlot(i, w)
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

// runShards runs priorityMIS, configured as node, on g and returns the
// run's shards, collected from the nodes in ascending vertex order, so in
// shard order.
func runShards(t *testing.T, g *graph.Graph, opts Options, node priorityMIS) []*shard {
	t.Helper()
	r := NewRunner(g, func(int) Node { p := node; return &p }, opts)
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
	return shards
}

// lopsidedPA is a preferential-attachment graph on the low half of n IDs
// with the high half isolated. The isolated vertices make no send call
// (a Broadcast with no neighbors sends nothing) and join in round 1, so
// the high shards drain early while the low ones are still busy.
func lopsidedPA(n int, seed uint64) *graph.Graph {
	return graph.MustNew(n, gen.PreferentialAttachment(n/2, 4, rng.New(seed)).Edges())
}

// TestOutboxCapsStableOverRun runs a whole Métivier MIS under the pool, the
// sequential driver and a faulted pool, on a graph whose high shards drain
// early, and requires every shard to end the run at its set-up cut
// [s·n/W, (s+1)·n/W) with its outbox at exactly the capacity sizeOutboxes
// reserved for it, one record per vertex: a broadcast-only program makes
// at most one send call per vertex per round, so no round outgrew it.
func TestOutboxCapsStableOverRun(t *testing.T) {
	const n = 1 << 13
	g := lopsidedPA(n, 4)
	cases := []struct {
		name   string
		opts   Options
		shards int
	}{
		{"pool-4", Options{Driver: DriverPool, Workers: 4}, 4},
		{"sequential", Options{Driver: DriverSequential}, 1},
		{"faulted-pool-4", Options{Driver: DriverPool, Workers: 4, Faults: faultsim.BernoulliDrop{P: 0.05}, MaxRounds: 500}, 4},
	}
	for _, c := range cases {
		c.opts.Seed = 6
		shards := runShards(t, g, c.opts, priorityMIS{})
		if len(shards) != c.shards {
			t.Fatalf("%s: collected %d shards, want %d", c.name, len(shards), c.shards)
		}
		for s, sh := range shards {
			if lo, hi := s*n/c.shards, (s+1)*n/c.shards; sh.lo != lo || sh.hi != hi {
				t.Fatalf("%s: shard %d ended the run at [%d, %d), set up at [%d, %d)", c.name, s, sh.lo, sh.hi, lo, hi)
			}
			if cap(sh.out) != sh.hi-sh.lo {
				t.Fatalf("%s: shard %d [%d, %d) ended the run at cap %d, reserved %d", c.name, s, sh.lo, sh.hi, cap(sh.out), sh.hi-sh.lo)
			}
		}
	}
}

// TestOutboxGrowsToDegreeSum runs priorityMIS as SendSlot loops, one
// record per edge, which overflows the one-record-per-vertex reservation
// in round 0. Each full shard outbox must grow in one step to its range's
// degree sum and end the run at exactly that capacity; when the program
// sends every message twice, the outbox must double once more, to twice
// the degree sum.
func TestOutboxGrowsToDegreeSum(t *testing.T) {
	g := gen.PreferentialAttachment(1<<12, 4, rng.New(9))
	cases := []struct {
		name   string
		opts   Options
		shards int
	}{
		{"sequential", Options{Driver: DriverSequential}, 1},
		{"pool-4", Options{Driver: DriverPool, Workers: 4}, 4},
	}
	for _, c := range cases {
		for _, double := range []bool{false, true} {
			c.opts.Seed = 12
			shards := runShards(t, g, c.opts, priorityMIS{slots: true, double: double})
			if len(shards) != c.shards {
				t.Fatalf("%s: collected %d shards, want %d", c.name, len(shards), c.shards)
			}
			for s, sh := range shards {
				want := degreeSum(g, sh.lo, sh.hi)
				if double {
					want *= 2
				}
				if cap(sh.out) != want {
					t.Fatalf("%s (double %v): shard %d [%d, %d) ended the run at cap %d, want %d", c.name, double, s, sh.lo, sh.hi, cap(sh.out), want)
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
	w, err := NewShardWorker(cfg, f.g.Rows(cfg.Lo, cfg.Hi), f.factory)
	if err != nil {
		return nil, err
	}
	f.workers = append(f.workers, w)
	return &localConn{w: w}, nil
}

// localConn sweeps on Send and hands the output back on Recv.
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
// packet buffer are reserved at its range's width (one send call per
// vertex; Sweep ships a Broadcast as one record), and both must keep that
// capacity across every Sweep. The same program sending twice per edge
// overflows the reservations and must still match the sequential driver,
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
			out[v] = r.Export(v)
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
		if c, want := cap(w.sh.out), w.cfg.Hi-w.cfg.Lo; c != want {
			t.Fatalf("worker %d: outbox cap %d after the run, reserved %d", w.cfg.Index, c, want)
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
