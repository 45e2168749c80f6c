package congest

import (
	"fmt"
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

// pullSink forwards every event to a recorder and counts the rounds the
// pool delivered by pull (an EvMerge with Y = 1). A run must set
// EventTiming for merge events to flow; only the pool emits them.
type pullSink struct {
	rec   *trace.Recorder
	pulls int // rounds delivered by pull
}

func (s *pullSink) Emit(e trace.Event) {
	if e.Type == trace.EvMerge && e.Y == 1 {
		s.pulls++
	}
	s.rec.Emit(e)
}

// TestBroadcastMatchesSendSlotLoop runs priorityMIS and its SendSlot twin
// under every driver, on a clean network and under message drops, delays
// and crashes, and requires the same error, Result, per-vertex states and
// deterministic trace fingerprint from all ten runs of each network: pull
// delivery, push delivery and faulted delivery must be indistinguishable.
// The graph's high shards drain early, so pool shards pull over ranges that
// are partly or wholly halted. Every clean Broadcast run on the pool must
// deliver rounds by pull; no SendSlot twin and no faulted run may pull. The
// stateful delay plan is rebuilt for every run, so each run sees the same
// fates in the same message order.
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
	run := func(slots bool, opts Options, plan faultsim.Plan) (outcome, *pullSink) {
		t.Helper()
		factory := func(int) Node { return &priorityMIS{slots: slots} }
		if opts.Driver == DriverDistributed {
			opts.Fleet = &localFleet{g: g, shards: 3, factory: factory}
		}
		opts.Seed = 6
		opts.Faults = plan
		opts.MaxRounds = 500
		sink := &pullSink{rec: trace.NewRecorder(0)}
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
				pulls := nw.name == "clean" && !slots && d.opts.Driver == DriverPool
				if pulls && sink.pulls == 0 {
					t.Fatalf("%s: no round delivered by pull", name)
				}
				if !pulls && sink.pulls > 0 {
					t.Fatalf("%s: %d rounds delivered by pull", name, sink.pulls)
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
// Three calls per sender rule out pull, so every round is pushed.
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
		sink := &pullSink{rec: trace.NewRecorder(0)}
		opts.Events = sink
		opts.EventTiming = opts.Driver == DriverPool
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if sink.pulls > 0 {
			t.Fatalf("%s: %d rounds delivered by pull", d.name, sink.pulls)
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

// shardOf returns the shard whose range holds vertex v.
func (st *execState) shardOf(v int) *shard {
	for _, sh := range st.shards {
		if v >= sh.lo && v < sh.hi {
			return sh
		}
	}
	panic(fmt.Sprintf("vertex %d is in no shard", v))
}

// TestPullNeedsOneBroadcastPerSender drives deliver whitebox on hand-filled
// outboxes. Only a reliable in-process round whose records are all
// Broadcasts, one per sender, is delivered by pull, and its pulled inboxes
// and counters must equal what push delivery makes of the same records. A
// SendSlot record, a second call by one sender, a silent round, a fault
// plan and the distributed coordinator all push.
func TestPullNeedsOneBroadcastPerSender(t *testing.T) {
	g := gen.PreferentialAttachment(256, 3, rng.New(5))
	bcast := func(v int) addressed {
		return addressed{to: BroadcastTo, msg: Message{From: v, Wire: rawWire(1 + v%60)}}
	}
	// Every third vertex broadcasts, up to 252: sender n-2 = 254 stays
	// free for the cases that add one more call.
	everyThird := func(st *execState) {
		for v := 0; v < g.N()-3; v += 3 {
			sh := st.shardOf(v)
			sh.out = append(sh.out, bcast(v))
		}
	}
	cases := []struct {
		name   string
		opts   Options
		shards int
		fill   func(st *execState)
		pull   bool
	}{
		{"broadcasts", Options{}, 1, everyThird, true},
		{"broadcasts-4-shards", Options{Driver: DriverPool}, 4, everyThird, true},
		{"sendslot", Options{}, 1, func(st *execState) {
			everyThird(st)
			u := g.N() - 2
			sh := st.shardOf(u)
			sh.out = append(sh.out, addressed{to: g.Neighbors(u)[0], msg: Message{From: u, Wire: rawWire(8)}})
		}, false},
		{"two-calls", Options{}, 1, func(st *execState) {
			everyThird(st)
			u := g.N() - 2
			sh := st.shardOf(u)
			sh.out = append(sh.out, bcast(u), bcast(u))
		}, false},
		{"silent", Options{}, 1, func(*execState) {}, false},
		{"faulted", Options{Faults: faultsim.BernoulliDrop{P: 0}}, 1, everyThird, false},
		{"distributed", Options{Driver: DriverDistributed}, 3, everyThird, false},
	}
	for _, c := range cases {
		c.opts.Seed = 1
		r := NewRunner(g, haltFactory, c.opts)
		st := r.newExecState(c.shards)
		c.fill(st)
		if err := r.deliver(st, 0); err != nil {
			t.Fatal(err)
		}
		if st.pull != c.pull {
			t.Fatalf("%s: delivered by pull = %v, want %v", c.name, st.pull, c.pull)
		}
		if !c.pull {
			continue
		}
		push := r.newExecState(c.shards)
		c.fill(push)
		push.deliverReliable()
		if st.res != push.res || st.sent != push.sent {
			t.Fatalf("%s: pull counters %+v (sent %d), push %+v (sent %d)", c.name, st.res, st.sent, push.res, push.sent)
		}
		for v := 0; v < g.N(); v++ {
			got := st.pullInbox(st.shardOf(v), g.Neighbors(v))
			if want := push.inbox(v); !slices.Equal(got, want) {
				t.Fatalf("%s: vertex %d pulled inbox %v, push inbox %v", c.name, v, got, want)
			}
		}
	}
}
