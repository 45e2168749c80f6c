package congest

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Differential suite for the one-record Broadcast: delivery expands a
// Broadcast record over the sender's neighbor list at the record's place
// in the outbox, so a program must not be able to tell it from a SendSlot
// loop over Neighbors() — not in its inboxes, its fault fates, its
// counters or its trace.

// broadcastDrivers is every execution strategy the differential tests
// cover; the distributed row runs on in-process workers (localFleet).
var broadcastDrivers = []struct {
	name string
	opts Options
}{
	{"sequential", Options{Driver: DriverSequential}},
	{"pool-1", Options{Driver: DriverPool, Workers: 1}},
	{"pool-2", Options{Driver: DriverPool, Workers: 2}},
	{"pool-4", Options{Driver: DriverPool, Workers: 4}},
	{"distributed", Options{Driver: DriverDistributed}},
}

// splitsMerge reports whether a run with opts merges large rounds by
// destination range on a reliable network: under the pool, with more than
// one worker and no more workers than CPUs.
func splitsMerge(opts Options) bool {
	return opts.Driver == DriverPool && opts.Workers > 1 && opts.Workers <= runtime.NumCPU()
}

// splitSink forwards every event to a recorder and counts rebalances and
// the rounds whose merge split by destination range on the pool workers
// (an EvMerge with worker phases): all of them, and those after the pool
// first re-cut its shard ranges. A run must set EventTiming for merge
// events to flow.
type splitSink struct {
	rec        *trace.Recorder
	rebalances int64
	splits     int // rounds merged by destination range
	recut      int // of those, rounds after the first rebalance
}

func (s *splitSink) Emit(e trace.Event) {
	switch {
	case e.Type == trace.EvRebalance:
		s.rebalances++
	case e.Type == trace.EvMerge && e.Y > 0:
		s.splits++
		if s.rebalances > 0 {
			s.recut++
		}
	}
	s.rec.Emit(e)
}

// TestBroadcastMatchesSendSlotLoop runs priorityMIS and its SendSlot twin
// under every driver, on a clean network and under message drops, delays
// and crashes, and requires the same error, Result, per-vertex states and
// deterministic trace fingerprint from all ten runs of each network.
// The graph makes the pool rebalance mid-run, and every clean run that
// splits its merge (splitsMerge) must then merge at least one round by
// destination range, so the row clipping runs over re-cut ranges; no
// other run may split. The stateful delay plan is rebuilt for every run,
// so each run sees the same fates in the same message order.
func TestBroadcastMatchesSendSlotLoop(t *testing.T) {
	const n = 1 << 14
	g := lopsidedPA(n, 4)
	networks := []struct {
		name string
		plan func() faultsim.Plan
	}{
		{"clean", func() faultsim.Plan { return nil }},
		{"bernoulli", func() faultsim.Plan { return faultsim.BernoulliDrop{P: 0.05} }},
		{"delay", func() faultsim.Plan { return &delayEveryFourth{} }},
		{"crash", func() faultsim.Plan { return faultsim.NewCrashStop(faultsim.SpreadCrashes(n, n/16, 2, 5)) }},
	}
	type outcome struct {
		res    Result
		err    string
		states []uint64
		fp     uint64
	}
	run := func(slots bool, opts Options, plan faultsim.Plan) (outcome, *splitSink) {
		t.Helper()
		factory := func(int) Node { return &priorityMIS{slots: slots} }
		if opts.Driver == DriverDistributed {
			opts.Fleet = &localFleet{g: g, shards: 3, factory: factory}
		}
		opts.Seed = 6
		opts.Faults = plan
		opts.MaxRounds = 500
		sink := &splitSink{rec: trace.NewRecorder(0)}
		opts.Events = sink
		opts.EventTiming = opts.Driver == DriverPool
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		o := outcome{res: res, states: make([]uint64, n), fp: sink.rec.Fingerprint()}
		if err != nil {
			o.err = err.Error()
		}
		for v := range o.states {
			o.states[v] = r.Node(v).(Porter).ExportState()
		}
		return o, sink
	}
	for _, nw := range networks {
		var ref outcome
		for i, d := range broadcastDrivers {
			for _, slots := range []bool{false, true} {
				got, sink := run(slots, d.opts, nw.plan())
				name := nw.name + "/" + d.name
				if slots {
					name += "/sendslot"
				}
				if d.opts.Workers > 1 && sink.rebalances == 0 {
					t.Fatalf("%s: the rebalancer never fired", name)
				}
				split := nw.name == "clean" && splitsMerge(d.opts)
				if split && sink.recut == 0 {
					t.Fatalf("%s: no round merged by destination range after a rebalance", name)
				}
				if !split && sink.splits > 0 {
					t.Fatalf("%s: %d rounds merged by destination range", name, sink.splits)
				}
				if i == 0 && !slots {
					ref = got
					if ref.res.Messages == 0 {
						t.Fatalf("%s: no messages delivered", name)
					}
					continue
				}
				if got.err != ref.err || got.res != ref.res || got.fp != ref.fp {
					t.Fatalf("%s: err %q Result %+v fingerprint %#x; sequential Broadcast: err %q Result %+v fingerprint %#x",
						name, got.err, got.res, got.fp, ref.err, ref.res, ref.fp)
				}
				if !slices.Equal(got.states, ref.states) {
					t.Fatalf("%s: vertex states differ from the sequential Broadcast run", name)
				}
			}
		}
	}
}

// mixedSender makes three send calls in Init — SendSlot to its first
// neighbor, Broadcast, then Send to its last neighbor — tagging each wire
// with its call index, and in round 1 checks that its inbox holds exactly
// the calls its neighbors addressed to it: grouped by sender in ascending
// order, and in call order within a sender.
type mixedSender struct {
	g  *graph.Graph
	ok bool
}

func mixedWire(call uint64) Wire { return Wire{Kind: kindPrio, Bits: 8, A: call} }

func (m *mixedSender) Init(ctx *Context) {
	nb := ctx.Neighbors()
	ctx.SendSlot(0, mixedWire(1))
	ctx.Broadcast(mixedWire(2))
	ctx.Send(nb[len(nb)-1], mixedWire(3))
}

func (m *mixedSender) Round(ctx *Context, inbox []Message) {
	var want []Message
	for _, u := range ctx.Neighbors() {
		nu := m.g.Neighbors(u)
		if nu[0] == ctx.ID() {
			want = append(want, Message{From: u, Wire: mixedWire(1)})
		}
		want = append(want, Message{From: u, Wire: mixedWire(2)})
		if nu[len(nu)-1] == ctx.ID() {
			want = append(want, Message{From: u, Wire: mixedWire(3)})
		}
	}
	m.ok = slices.Equal(inbox, want)
	ctx.Halt()
}

func (m *mixedSender) ExportState() uint64 {
	if m.ok {
		return 1
	}
	return 0
}

func (m *mixedSender) ImportState(x uint64) { m.ok = x == 1 }

// TestMixedSendOrder interleaves per-message and Broadcast records from
// one sender in one round: every receiver's inbox must hold each sender's
// messages in call order, under every driver, with identical counters.
// Three calls per vertex keep the round above parallelMergeMin, so the
// rows that split their merge (splitsMerge) must merge it by destination
// range.
func TestMixedSendOrder(t *testing.T) {
	g := gen.PreferentialAttachment(2048, 3, rng.New(8))
	factory := func(int) Node { return &mixedSender{g: g} }
	var ref Result
	for i, d := range broadcastDrivers {
		opts := d.opts
		opts.Seed = 3
		if opts.Driver == DriverDistributed {
			opts.Fleet = &localFleet{g: g, shards: 3, factory: factory}
		}
		sink := &splitSink{rec: trace.NewRecorder(0)}
		opts.Events = sink
		opts.EventTiming = opts.Driver == DriverPool
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if splitsMerge(opts) != (sink.splits > 0) {
			t.Fatalf("%s: %d rounds merged by destination range", d.name, sink.splits)
		}
		for v := 0; v < g.N(); v++ {
			if r.Node(v).(Porter).ExportState() != 1 {
				t.Fatalf("%s: vertex %d inbox is not its neighbors' calls in (sender, call) order", d.name, v)
			}
		}
		if i == 0 {
			ref = res
		} else if res != ref {
			t.Fatalf("%s: Result %+v, sequential %+v", d.name, res, ref)
		}
	}
	if want := int64(2*g.M() + 2*g.N()); ref.Messages != want {
		t.Fatalf("delivered %d messages, want 2m + 2n = %d", ref.Messages, want)
	}
}
