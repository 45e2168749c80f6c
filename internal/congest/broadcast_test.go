package congest

import (
	"fmt"
	"slices"
	"testing"
	"time"

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
// pool delivered by the broadcast pull (an EvMerge with Y = 1). A run must set
// EventTiming for merge events to flow; only the pool emits them.
type pullSink struct {
	rec   *trace.Recorder
	pulls int // rounds delivered by the broadcast pull
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
// deterministic trace fingerprint from all ten runs of each network: the
// broadcast pull and the record pull, reliable and faulted, must be
// indistinguishable. The graph's high shards drain early, so pool shards
// pull over ranges that are partly or wholly halted. Every clean Broadcast
// run on the pool must take the broadcast pull in some rounds; no SendSlot
// twin and no faulted run may take it. The stateful delay plan is rebuilt
// for every run, so each run sees the same fates in the same message order.
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
		sink := &pullSink{rec: trace.NewRecorder()}
		opts.Events = sink
		opts.EventTiming = opts.Driver == DriverPool
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		o := outcome{res: res, states: make([]uint64, n), fp: sink.rec.Fingerprint()}
		if err != nil {
			o.err = err.Error()
		}
		for v := range o.states {
			o.states[v] = r.Export(v)
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
					t.Fatalf("%s: no round took the broadcast pull", name)
				}
				if !pulls && sink.pulls > 0 {
					t.Fatalf("%s: %d rounds took the broadcast pull", name, sink.pulls)
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
	ctx.Send(int(nb[len(nb)-1]), mixedWire(3))
}

func (m *mixedSender) Round(ctx *Context, inbox []Message) {
	var want []Message
	id := int32(ctx.ID())
	for _, x := range ctx.Neighbors() {
		u := int(x)
		nu := m.g.Neighbors(u)
		if nu[0] == id {
			want = append(want, Message{From: u, Wire: mixedWire(1)})
		}
		want = append(want, Message{From: u, Wire: mixedWire(2)})
		if nu[len(nu)-1] == id {
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

// TestMixedSendOrder interleaves per-message and Broadcast records from
// one sender in one round: every receiver's inbox must hold each sender's
// messages in call order, under every driver, with identical counters.
// Three calls per sender rule out the broadcast pull, so every round takes
// the record pull.
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
		sink := &pullSink{rec: trace.NewRecorder()}
		opts.Events = sink
		opts.EventTiming = opts.Driver == DriverPool
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if sink.pulls > 0 {
			t.Fatalf("%s: %d rounds took the broadcast pull", d.name, sink.pulls)
		}
		for v := 0; v < g.N(); v++ {
			if r.Export(v) != 1 {
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

// starSender is a star's traffic: for three rounds the center sends to
// every leaf, by a SendSlot loop or, as the twin, by one Broadcast, and
// every vertex then halts.
type starSender struct{ slots bool }

func (s starSender) Init(ctx *Context) { s.Round(ctx, nil) }

func (s starSender) Round(ctx *Context, _ []Message) {
	switch {
	case ctx.Round() >= 3:
		ctx.Halt()
	case ctx.ID() != 0:
	case s.slots:
		for i := range ctx.Neighbors() {
			ctx.SendSlot(i, rawWire(8))
		}
	default:
		ctx.Broadcast(rawWire(8))
	}
}

// TestRecordPullLinearOnStar bounds the record pull's work on a sender
// with many calls: the center of a 2^14-vertex star SendSlot-loops to
// every leaf, so each leaf's inbox holds one of the center's 2^14 - 1
// records. The pull must find it without walking the others — O(messages)
// a round, not deg·calls — so the run may take at most 25× its Broadcast
// twin's time, whose rounds take the broadcast pull; it reads about 2×.
// Each side keeps the fastest of five runs. A pull that walked all of a
// neighbor's records for each receiver did 2^28 steps a round and read
// about 1,400×.
func TestRecordPullLinearOnStar(t *testing.T) {
	const n = 1 << 14
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: i + 1}
	}
	g := graph.MustNew(n, edges)
	best := func(slots bool) (time.Duration, Result) {
		var fastest time.Duration
		var res Result
		for rep := 0; rep < 5; rep++ {
			r := NewRunner(g, func(int) Node { return starSender{slots: slots} }, Options{Seed: 1})
			start := time.Now()
			got, err := r.Run()
			took := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 || took < fastest {
				fastest = took
			}
			res = got
		}
		return fastest, res
	}
	slot, slotRes := best(true)
	bcast, bcastRes := best(false)
	t.Logf("SendSlot loop %v, Broadcast %v (%.1f×)", slot, bcast, float64(slot)/float64(bcast))
	if slotRes != bcastRes || slotRes.Messages != 3*(n-1) {
		t.Fatalf("SendSlot loop %+v, Broadcast %+v, want %d messages each", slotRes, bcastRes, 3*(n-1))
	}
	if slot > 25*bcast {
		t.Fatalf("SendSlot-loop star run took %v, over 25× its Broadcast twin's %v", slot, bcast)
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

// refInbox is the record pull's reference, written from its definition
// rather than from the pull's cursors: vertex v's late messages in
// deferral order, then every record, in record order, whose sender is a
// neighbor of v and which is a Broadcast or addressed to v, less the
// (v, record) pairs the plan withheld.
func refInbox(g *graph.Graph, v int, recs []Packet, withheld []Withheld, late []Packet) []Message {
	var want []Message
	for _, p := range late {
		if int(p.To) == v {
			want = append(want, Message{From: int(p.From), Wire: p.Wire})
		}
	}
	for i, p := range recs {
		if !g.HasEdge(int(p.From), v) || p.To != BroadcastTo && int(p.To) != v {
			continue
		}
		if slices.Contains(withheld, Withheld{To: int32(v), Rec: int32(i)}) {
			continue
		}
		want = append(want, Message{From: int(p.From), Wire: p.Wire})
	}
	return want
}

// TestPullNeedsOneBroadcastPerSender drives deliver whitebox on hand-filled
// outboxes. Only a reliable in-process round whose records are all
// Broadcasts, one per sender, takes the broadcast pull, and its counters
// must equal what the record path accounts for the same records. A
// SendSlot record, a second call by one sender, a silent round, a fault
// plan and the distributed coordinator take the record pull. Every
// in-process vertex's inbox, from either pull, must equal refInbox: the
// drop rows withhold pairs, the delay row, run for three rounds, also
// delivers late messages, and in the mixed row one sender addresses its
// last neighbor, broadcasts, then addresses its first, so the pull must
// merge that sender's direct and Broadcast records by record index. Both
// pulls must leave the shard's scratch at full length, as the broadcast
// pull writes it by index.
func TestPullNeedsOneBroadcastPerSender(t *testing.T) {
	g := gen.PreferentialAttachment(256, 3, rng.New(5))
	bcast := func(v int) Packet {
		return Packet{To: BroadcastTo, From: int32(v), Wire: rawWire(1 + v%60)}
	}
	// Every third vertex broadcasts, up to 252: sender n-2 = 254 stays
	// free for the cases that add one more call.
	everyThird := func(st *execState) {
		for v := 0; v < g.N()-3; v += 3 {
			sh := st.shardOf(v)
			sh.out = append(sh.out, bcast(v))
		}
	}
	drops := faultsim.BernoulliDrop{P: 0.3}
	cases := []struct {
		name   string
		opts   Options
		shards int
		rounds int
		fill   func(st *execState)
		pull   bool
	}{
		{"broadcasts", Options{}, 1, 1, everyThird, true},
		{"broadcasts-4-shards", Options{Driver: DriverPool}, 4, 1, everyThird, true},
		{"sendslot", Options{}, 1, 1, func(st *execState) {
			everyThird(st)
			u := g.N() - 2
			sh := st.shardOf(u)
			sh.out = append(sh.out, Packet{To: int32(g.Neighbors(u)[0]), From: int32(u), Wire: rawWire(8)})
		}, false},
		{"two-calls", Options{}, 1, 1, func(st *execState) {
			everyThird(st)
			u := g.N() - 2
			sh := st.shardOf(u)
			sh.out = append(sh.out, bcast(u), bcast(u))
		}, false},
		{"mixed-4-shards", Options{Driver: DriverPool, Faults: drops}, 4, 1, func(st *execState) {
			everyThird(st)
			u := g.N() - 2
			nb := g.Neighbors(u)
			sh := st.shardOf(u)
			sh.out = append(sh.out,
				Packet{To: int32(nb[len(nb)-1]), From: int32(u), Wire: rawWire(8)},
				bcast(u),
				Packet{To: int32(nb[0]), From: int32(u), Wire: rawWire(9)})
		}, false},
		{"silent", Options{}, 1, 1, func(*execState) {}, false},
		{"faulted", Options{Faults: faultsim.BernoulliDrop{P: 0}}, 1, 1, everyThird, false},
		{"drops", Options{Faults: drops}, 1, 1, everyThird, false},
		{"drops-4-shards", Options{Driver: DriverPool, Faults: drops}, 4, 1, everyThird, false},
		{"delays", Options{Faults: &delayEveryFourth{}}, 1, 3, everyThird, false},
		{"distributed", Options{Driver: DriverDistributed}, 3, 1, everyThird, false},
	}
	for _, c := range cases {
		c.opts.Seed = 1
		r := NewRunner(g, haltFactory, c.opts)
		st := r.newExecState(c.shards)
		var recs, late []Packet
		for round := range c.rounds {
			c.fill(st)
			recs = recs[:0]
			for _, sh := range st.shards {
				recs = append(recs, sh.out...)
			}
			late = slices.Clone(st.delayed[round+1])
			if err := r.deliver(st, round); err != nil {
				t.Fatal(err)
			}
		}
		if st.pull != c.pull {
			t.Fatalf("%s: broadcast pull = %v, want %v", c.name, st.pull, c.pull)
		}
		if st.remote {
			continue
		}
		if c.opts.Faults == drops && len(st.withheld) == 0 || c.rounds > 1 && (len(late) == 0 || len(st.withheld) == 0) {
			t.Fatalf("%s: %d withheld pairs and %d late messages: the row tests nothing", c.name, len(st.withheld), len(late))
		}
		if c.pull {
			rec := NewRunner(g, haltFactory, c.opts).newExecState(c.shards) // a Runner's own state would be st
			c.fill(rec)
			rec.gatherRecords()
			rec.deliverRecords(0)
			if st.res != rec.res || st.sent != rec.sent {
				t.Fatalf("%s: broadcast-pull counters %+v (sent %d), record path %+v (sent %d)", c.name, st.res, st.sent, rec.res, rec.sent)
			}
		}
		for v := 0; v < g.N(); v++ {
			sh, row := st.shardOf(v), g.Neighbors(v)
			var got []Message
			if st.pull {
				got = sh.pullInbox(row)
			} else {
				got = sh.pull(v, row)
			}
			if want := refInbox(g, v, recs, st.withheld, late); !slices.Equal(got, want) {
				t.Fatalf("%s: vertex %d inbox %v, reference %v", c.name, v, got, want)
			}
		}
		for s, sh := range st.shards {
			if widest := widestRow(g.Rows(sh.lo, sh.hi)); len(sh.inbox) < widest {
				t.Fatalf("%s: shard %d scratch at length %d after the pulls, widest row %d", c.name, s, len(sh.inbox), widest)
			}
		}
	}
}
