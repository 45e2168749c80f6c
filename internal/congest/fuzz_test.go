package congest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/trace"
)

// FuzzCrossDriver is the differential guard for the engine's two inbox
// builders — the broadcast pull and the record pull, reliable and faulted —
// which deliver picks round by round from the shape of the outboxes. An
// input decodes to a graph of at most 64 vertices, a byte script that
// picks every live vertex's calls in every round, and an optional drop or
// delay plan. The input runs under the sequential driver, the pool at 1,
// 2 and 3 workers and at one vertex per shard, and the distributed
// coordinator on in-process workers, and every run must give the same
// error text, Result, per-vertex inbox digest and deterministic trace
// fingerprint. So must a Runner that Reset rebinds to the input after it
// ran a fixed script that failed with messages in flight (dirtyInput), on
// the sequential driver and the pool at 2 workers. Every driver builds
// its record-round inboxes with the same pull, so agreement alone cannot
// catch a defect in it: the input also runs whitebox on 1, 3 and n
// shards, where every inbox either pull builds must equal refInbox (see
// checkInboxes).
func FuzzCrossDriver(f *testing.F) {
	path := func(n int) []byte {
		var e []byte
		for v := 0; v+1 < n; v++ {
			e = append(e, byte(v), byte(v+1))
		}
		return e
	}
	star := []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 3, 4}
	// Seeds mirror the crossdriver and broadcast suites: broadcast-only
	// rounds (Métivier's shape, every round broadcast-pulled), rounds of
	// mostly SendSlot calls (the SendSlot twin's record rounds), Broadcast, SendSlot
	// and Send calls mixed in one round (mixedSender), two Broadcasts per
	// vertex (doublesend), under drops and under delays, plus messages
	// above MaxWireBits and a round limit the script outlives.
	for _, s := range []fuzzSeed{
		{n: 12, edges: path(12), rounds: 6, script: []byte{0x00, 0x08, 0x10, 0x18}},
		{n: 12, edges: path(12), rounds: 6, script: []byte{0x40, 0x44, 0x4c, 0x54}},
		{n: 6, edges: star, rounds: 4, script: []byte{0x41, 0x46, 0x45, 0x43, 0x40}},
		{n: 6, edges: star, rounds: 5, script: []byte{0x47, 0x4f, 0x57}},
		{n: 12, edges: path(12), plan: 2, rounds: 8, script: []byte{0x00, 0x02, 0x10, 0x09}},
		{n: 6, edges: star, plan: 7, rounds: 7, script: []byte{0x40, 0x46, 0x00, 0x03}},
		{n: 40, edges: append(path(40), 0, 39, 5, 17, 9, 30), plan: 2, rounds: 10, script: []byte{0x00, 0x44, 0x0b, 0x81, 0x47}},
		{n: 9, edges: path(9), oversize: true, rounds: 3, script: []byte{0xf8, 0x00, 0x70}},
		{n: 9, edges: path(9), rounds: 12, maxRounds: 4, script: []byte{0x01}},
	} {
		f.Add(s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeFuzzInput(data)
		if !ok {
			t.Skip()
		}
		ref := in.run(new(Runner), fuzzDrivers[0].opts)
		check := func(name string, got fuzzOutcome) {
			if got.err != ref.err || got.res != ref.res || got.fp != ref.fp {
				t.Fatalf("%s: err %q Result %+v fingerprint %#x; sequential: err %q Result %+v fingerprint %#x",
					name, got.err, got.res, got.fp, ref.err, ref.res, ref.fp)
			}
			for v := range got.digests {
				if got.digests[v] != ref.digests[v] {
					t.Fatalf("%s: vertex %d inbox digest %#x, sequential %#x", name, v, got.digests[v], ref.digests[v])
				}
			}
		}
		for _, d := range fuzzDrivers[1:] {
			check(d.name, in.run(new(Runner), d.opts))
		}
		for _, d := range reboundDrivers {
			r := new(Runner)
			if dirty := dirtyInput.run(r, d.dirty); !strings.Contains(dirty.err, "exceeds") {
				t.Fatalf("%s: dirtyInput ended with %q, not the oversized message it must fail on", d.name, dirty.err)
			}
			check(d.name, in.run(r, d.opts))
		}
		for _, shards := range []int{1, 3, in.g.N()} {
			if bad := in.checkInboxes(shards); bad != "" {
				t.Fatalf("%d shards: %s", shards, bad)
			}
		}
	})
}

// inboxOracle holds what refInbox needs to check a whitebox run's inboxes:
// the graph, the run's state — whose withheld pairs and late messages are
// the last delivery's — the send calls of the round just swept, copied
// from the shard outboxes in shard order as the round's records are, and
// the first mismatch.
type inboxOracle struct {
	g    *graph.Graph
	st   *execState
	sent []Packet
	bad  string
}

// oracleNode is a scriptNode that checks every inbox against refInbox
// before it runs its round.
type oracleNode struct {
	scriptNode
	o *inboxOracle
}

func (n *oracleNode) Round(ctx *Context, inbox []Message) {
	o := n.o
	if want := refInbox(o.g, ctx.ID(), o.sent, o.st.withheld, o.st.late); o.bad == "" && !slices.Equal(inbox, want) {
		o.bad = fmt.Sprintf("round %d: vertex %d inbox %v, reference %v", ctx.Round(), ctx.ID(), inbox, want)
	}
	n.scriptNode.Round(ctx, inbox)
}

// checkInboxes runs the input whitebox through runLoop on the given number
// of shards, swept in shard order on one goroutine, and returns the first
// inbox that differs from refInbox, or "" when none does. The reference is
// written from the record pull's definition, not from its cursors, so it
// is independent of both pulls.
func (in fuzzInput) checkInboxes(shards int) string {
	o := &inboxOracle{g: in.g}
	factory := func(int) Node { return &oracleNode{scriptNode: scriptNode{in: &in}, o: o} }
	r := NewRunner(in.g, factory, Options{Seed: 5, Faults: in.plan(), MaxRounds: in.maxRounds})
	o.st = r.newExecState(shards)
	r.runLoop(o.st, func(round int) {
		for _, sh := range o.st.shards {
			sh.sweep(round, o.st.pull)
		}
		o.sent = o.sent[:0]
		for _, sh := range o.st.shards {
			o.sent = append(o.sent, sh.out...)
		}
	}, nil)
	return o.bad
}

// fuzzDrivers is every run FuzzCrossDriver compares, the reference first.
var fuzzDrivers = []struct {
	name string
	opts Options
}{
	{"sequential", Options{}},
	{"pool-1", Options{Driver: DriverPool, Workers: 1}},
	{"pool-2", Options{Driver: DriverPool, Workers: 2}},
	{"pool-3", Options{Driver: DriverPool, Workers: 3}},
	{"pool-n", Options{Driver: DriverPool, Workers: 1 << 30}},
	{"distributed", Options{Driver: DriverDistributed}},
}

// reboundDrivers are FuzzCrossDriver's rebound runs: each Runner first
// runs dirtyInput on the dirty options, then Reset binds it to the input
// on the other driver, so the shard count changes.
var reboundDrivers = []struct {
	name        string
	dirty, opts Options
}{
	{"rebound-sequential", Options{Driver: DriverPool, Workers: 2}, Options{}},
	{"rebound-pool-2", Options{}, Options{Driver: DriverPool, Workers: 2}},
}

// dirtyInput is the fixed script a rebound run's Runner runs first: 64
// vertices on a path with chords, every message delayed two rounds, five
// rounds of every op, emits included, and in the sixth an oversized
// message from vertex 40, which fails the run mid-sweep. Its messages in
// flight, sent records, buffered events and failed shard are what Reset
// must not let through.
var dirtyInput = func() fuzzInput {
	const n = 64
	var edges []byte
	for v := 0; v+1 < n; v++ {
		edges = append(edges, byte(v), byte(v+1))
	}
	edges = append(edges, 0, 63, 5, 17, 9, 30, 12, 50, 31, 33)
	script := make([]byte, 6*n)
	for i := range script {
		script[i] = byte(0x40 | i*37%56) // every op, and no byte sends above the budget
	}
	script[5*n+40] = 0xf8
	in, ok := decodeFuzzInput(fuzzSeed{n: n, edges: edges, plan: 7, oversize: true, rounds: 8, script: script}.encode())
	if !ok {
		panic("congest: dirtyInput does not decode")
	}
	return in
}()

// fuzzSeed is a readable FuzzCrossDriver input; encode lays it out the
// way decodeFuzzInput reads it.
type fuzzSeed struct {
	n         int
	edges     []byte // vertex pairs
	plan      byte   // see decodeFuzzInput
	oversize  bool
	rounds    int
	maxRounds int // 0: the script's rounds plus one
	script    []byte
}

func (s fuzzSeed) encode() []byte {
	flags := byte(0)
	if s.oversize {
		flags = 1
	}
	out := []byte{byte(s.n - 1), byte(len(s.edges) / 2)}
	out = append(out, s.edges...)
	return append(append(out, s.plan, flags, byte(s.rounds-1), byte(s.maxRounds)), s.script...)
}

// fuzzInput is a decoded FuzzCrossDriver input.
type fuzzInput struct {
	g         *graph.Graph
	plan      func() faultsim.Plan
	extraBits int // added to every wire's bit size
	rounds    int // the script's length in rounds; every vertex halts after it
	maxRounds int
	script    []byte
}

// decodeFuzzInput reads n-1 (mod 64), an edge count and that many vertex
// pairs (self-loops skipped), a plan byte (mod 4: 0 and 1 reliable, 2
// BernoulliDrop at 0.25, 3 DelayK with K = 1 + (byte>>2)%3), a flags byte
// (bit 0: every wire 8 bits larger, so a script byte b with b%128 >= 120
// sends above MaxWireBits), the script's rounds minus one (mod 12),
// Options.MaxRounds (0: rounds+1), and the script itself.
func decodeFuzzInput(data []byte) (fuzzInput, bool) {
	if len(data) < 2 {
		return fuzzInput{}, false
	}
	n, m := 1+int(data[0])%64, int(data[1])
	data = data[2:]
	if len(data) < 2*m+4 {
		return fuzzInput{}, false
	}
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		u, v := int(data[2*i])%n, int(data[2*i+1])%n
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	data = data[2*m:]
	in := fuzzInput{
		g:         graph.MustNew(n, edges),
		plan:      func() faultsim.Plan { return nil },
		rounds:    1 + int(data[2])%12,
		maxRounds: int(data[3]),
		script:    data[4:],
	}
	switch p := data[0]; p % 4 {
	case 2:
		in.plan = func() faultsim.Plan { return faultsim.BernoulliDrop{P: 0.25} }
	case 3:
		in.plan = func() faultsim.Plan { return faultsim.DelayK{K: 1 + int(p>>2)%3} }
	}
	if data[1]&1 != 0 {
		in.extraBits = 8
	}
	if in.maxRounds == 0 {
		in.maxRounds = in.rounds + 1
	}
	if len(in.script) == 0 {
		in.script = []byte{0}
	}
	return in, true
}

// fuzzOutcome is what FuzzCrossDriver compares across runs.
type fuzzOutcome struct {
	err     string
	res     Result
	digests []uint64
	fp      uint64
}

// run binds r to the input by Reset, as NewRunner does a new Runner, and
// runs it.
func (in fuzzInput) run(r *Runner, opts Options) fuzzOutcome {
	factory := func(int) Node { return &scriptNode{in: &in} }
	if opts.Driver == DriverDistributed {
		opts.Fleet = &localFleet{g: in.g, shards: 3, factory: factory}
	}
	rec := trace.NewRecorder()
	opts.Seed = 5
	opts.Faults = in.plan()
	opts.MaxRounds = in.maxRounds
	opts.Events = rec
	opts.EventTiming = true
	r.Reset(in.g, factory, opts)
	res, err := r.Run()
	o := fuzzOutcome{res: res, fp: rec.Fingerprint(), digests: make([]uint64, in.g.N())}
	if err != nil {
		o.err = err.Error()
	}
	for v := range o.digests {
		o.digests[v] = r.Export(v)
	}
	return o
}

// scriptNode runs a FuzzCrossDriver script: in every round up to the
// script's last, byte script[(round·n + v) mod len] picks vertex v's
// calls, and after it the vertex halts. A round's own byte,
// script[round mod len], restricts the round to the calls the broadcast
// pull accepts (bit 6 clear: ops 0-3) or allows every op (bit 6 set). The
// node folds every inbox it receives into a digest, which it exports
// through Porter so distributed runs report it too.
type scriptNode struct {
	in     *fuzzInput
	digest uint64
}

// Script ops: the first four keep a round fit for the broadcast pull.
const (
	opBroadcast = iota
	opSilent
	opEmit
	opHalt // with bit 7 set, Broadcast first
	opSendSlot
	opSend // to a neighbor, or to the vertex itself (an error) when b>>3 is 31
	opBroadcastSlot
	opBroadcastTwice
)

func (s *scriptNode) Init(ctx *Context) { s.step(ctx) }

func (s *scriptNode) Round(ctx *Context, inbox []Message) {
	h := trace.Fold(s.digest, uint64(ctx.Round())<<32|uint64(len(inbox)))
	for _, m := range inbox {
		h = trace.Fold(h, uint64(m.From))
		h = trace.Fold(h, uint64(m.Wire.Kind)<<16|uint64(m.Wire.Bits))
		h = trace.Fold(h, m.Wire.A)
		h = trace.Fold(h, m.Wire.B)
	}
	s.digest = h
	s.step(ctx)
}

func (s *scriptNode) step(ctx *Context) {
	round, script := ctx.Round(), s.in.script
	if round >= s.in.rounds {
		ctx.Halt()
		return
	}
	b := script[(round*ctx.N()+ctx.ID())%len(script)]
	ops := 4
	if script[round%len(script)]&0x40 != 0 {
		ops = 8
	}
	w := Wire{Kind: 1 + WireKind(b%3), Bits: uint16(1 + int(b)%128 + s.in.extraBits), A: uint64(ctx.ID())<<32 | uint64(round), B: uint64(b)}
	nb := ctx.Neighbors()
	slot := int(b>>3) % max(len(nb), 1)
	switch int(b) % ops {
	case opBroadcast:
		ctx.Broadcast(w)
	case opEmit:
		ctx.Emit(int32(b), int64(round))
	case opHalt:
		if b&0x80 != 0 {
			ctx.Broadcast(w)
		}
		ctx.Halt()
	case opSendSlot:
		if len(nb) > 0 {
			ctx.SendSlot(slot, w)
		}
	case opSend:
		switch {
		case b>>3 == 31:
			ctx.Send(ctx.ID(), w)
		case len(nb) > 0:
			ctx.Send(int(nb[slot]), w)
		}
	case opBroadcastSlot:
		ctx.Broadcast(w)
		if len(nb) > 0 {
			ctx.SendSlot(slot, w)
		}
	case opBroadcastTwice:
		ctx.Broadcast(w)
		ctx.Broadcast(w)
	}
}

func (s *scriptNode) ExportState() uint64 { return s.digest }
