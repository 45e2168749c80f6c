// Package congest simulates the synchronous CONGEST model of distributed
// computing: one state machine per graph vertex, lock-step rounds, and
// messages between neighbors whose size the engine meters (the CONGEST
// model allows O(log n) bits per edge per round).
//
// Three interchangeable drivers execute a program, chosen by
// Options.Driver:
//
//   - the sequential driver (the zero value) sweeps vertices in ID order
//     each round,
//   - the sharded worker-pool driver partitions vertices into contiguous
//     shards, one long-lived worker goroutine per shard, and
//   - the distributed driver runs every shard in a separate OS process
//     (see distributed.go and internal/distrib).
//
// All drivers produce bit-identical executions for the same seed. Three
// invariants make scheduling order invisible to programs:
//
//  1. each node owns a private RNG stream split from the run seed by
//     vertex ID (splitting is a pure function, so creation order is
//     irrelevant);
//  2. every driver builds each inbox in ascending sender-ID order — within
//     a shard nodes are swept in ID order, and shards cover contiguous ID
//     ranges visited in shard order — so no inbox needs a per-round sort.
//     A shard outbox holds one Packet per send call; a Broadcast is a
//     single record. Every inbox is built by pull, in the sweep that
//     consumes it. A reliable in-process round in which every sender made
//     one call, a Broadcast, takes the broadcast pull: the sweep keeps the
//     flagged senders of the vertex's CSR row. Every other round —
//     in-process or distributed, reliable or faulted — takes the record
//     pull: the sweep merges the records addressed to the vertex, sorted
//     by recipient once a round, with its row's Broadcasts, less the
//     deliveries the fault plan withheld, after its late messages. Both
//     give the message order (sender ID, send call, neighbor) — what one
//     Send per neighbor would give; and
//  3. fault-injection decisions (the faultsim.Plan consults, including any
//     random draws) happen on the coordinator: each round's vertex fates
//     are drawn before the sweep, which reads them and never consults the
//     plan, and message fates during delivery, in that same global sender
//     order, from a dedicated fault stream.
//
// A run's output is one word per vertex, its node's Porter.ExportState,
// which Runner.Export reads under every driver: in process from the node,
// and in a distributed run from the words the workers ship back, since
// the coordinator builds no nodes.
//
// A Runner runs once per set-up: NewRunner sets one up, and Runner.Reset
// rebinds it to another graph, factory and options for one more Run,
// which reuses the last run's buffers and is bit-identical to a fresh
// Runner's.
//
// Fault injection is delegated to internal/faultsim: Options.Faults
// accepts any faultsim.Plan (message drops, link bursts, partitions,
// vertex crashes and restarts, delivery delays). A run is watched through
// one channel, the typed event stream Options.Events receives (see
// events.go and internal/trace).
package congest

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Message is a wire payload annotated with its sender's vertex ID. It is
// a plain value (no pointers): the pull copies each message from a
// neighbor's outbox record into the inbox scratch of the shard that
// consumes it, with zero heap traffic.
type Message struct {
	From int
	Wire Wire
}

// Node is one vertex's state machine. Init runs before round 1 and may
// send messages (delivered in round 1). Round runs once per round with the
// messages delivered this round. The inbox is only valid during the call:
// the pull builds it in a scratch slice that the shard reuses for its next
// vertex. A node that calls Context.Halt receives no further Round
// calls.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Message)
}

// Context is the view of the network that the engine passes to Init and
// Round. A run holds one Context per shard, and the shard's sweep
// re-points it at each vertex it visits — the vertex ID, its CSR row and
// its RNG stream — so a Context is only valid during the call it is
// passed to, and a program must not keep it. The round number, the halt
// flag of the call in progress, n and whether the run is traced live on
// the shard that runs it, because they are the same for every vertex a
// sweep runs.
type Context struct {
	id        int
	neighbors []int32  // the vertex's CSR row: neighbor IDs, ascending, in the graph's 4-byte words
	rng       *rng.RNG // the vertex's entry in the run-wide stream table
	shard     *shard
}

// BroadcastTo marks a Broadcast record in a Packet's To. Recipient IDs are
// never negative, so the marker cannot collide with a real recipient.
const BroadcastTo = -1

// ID returns this vertex's identifier (0..N-1). In CONGEST nodes know their
// own O(log n)-bit ID and those of their neighbors.
func (c *Context) ID() int { return c.id }

// N returns the number of vertices in the network. (Algorithms in this repo
// use it only for parameterization that the model allows — e.g. knowing n
// up to a constant factor.)
func (c *Context) N() int { return c.shard.n }

// Round returns the current round number, starting at 1. During Init it
// returns 0.
func (c *Context) Round() int { return c.shard.round }

// Neighbors returns the sorted neighbor IDs, the vertex's CSR row in the
// graph's 4-byte words (every ID fits an int32). The slice aliases graph
// storage and must not be modified.
func (c *Context) Neighbors() []int32 { return c.neighbors }

// Degree returns the vertex degree.
func (c *Context) Degree() int { return len(c.neighbors) }

// RNG returns this node's private random stream. Draws are deterministic
// given the run seed and vertex ID, and no other node shares the stream.
// The stream lives in a pointer-free run-wide table, not in the Context,
// so the pointer stays valid for the whole run.
func (c *Context) RNG() *rng.RNG { return c.rng }

// Marks returns this vertex's marks: one byte per neighbor slot, aligned
// with Neighbors() (Marks()[i] belongs to Neighbors()[i]), zero before
// Init and kept for the whole run. The engine gives them no meaning: they
// are where a program keeps per-neighbor state without a per-vertex
// allocation (mis/base.ActiveSet keeps its removed flags there). The
// shard that sweeps the vertex holds them, so a distributed worker has
// them for its own rows, and allocates them, or clears the last run's
// when they are large enough, the first time one of its vertices asks, so
// a program that never asks pays nothing. The slice is capped at the
// vertex's row.
//
//congest:hotpath
func (c *Context) Marks() []uint8 {
	sh := c.shard
	off := sh.rows.Off
	if len(sh.marks) == 0 {
		sh.allocMarks()
	}
	i := c.id - sh.rows.Lo
	lo, hi := off[i]-off[0], off[i+1]-off[0]
	return sh.marks[lo:hi:hi]
}

// allocMarks gives the shard its marks: one zero byte per adjacency slot
// of its rows, in the last run's array when it is large enough.
//
//congest:coldpath
func (sh *shard) allocMarks() {
	off := sh.rows.Off
	sh.marks = resize(sh.marks, int(off[len(off)-1]-off[0]))
	clear(sh.marks)
}

// Send queues a message to neighbor `to` for delivery next round. Sending
// to a non-neighbor — an ID outside int32 included, which is never
// narrowed onto a neighbor — is a programming error and poisons the run
// with an error (the model has no routing). Send pays a binary search
// over the neighbor list to validate `to`; hot paths that already know
// the neighbor's position should use SendSlot instead.
func (c *Context) Send(to int, w Wire) {
	i := graph.Slot(c.neighbors, to)
	if i < 0 {
		c.fail(fmt.Errorf("congest: node %d sent to non-neighbor %d", c.id, to))
		return
	}
	c.enqueue(c.neighbors[i], w)
}

// SendSlot queues a message to the i'th neighbor (Neighbors()[i]) for
// delivery next round. It addresses the neighbor by its slot in the
// adjacency list, so no neighbor-membership search is needed — this is the
// zero-overhead send for programs that iterate Neighbors() anyway. A slot
// outside [0, Degree()) poisons the run.
//
//congest:hotpath
func (c *Context) SendSlot(i int, w Wire) {
	if uint(i) >= uint(len(c.neighbors)) {
		//congest:coldpath slot violations poison the run; the error path may allocate
		c.fail(fmt.Errorf("congest: node %d sent to neighbor slot %d of %d", c.id, i, len(c.neighbors)))
		return
	}
	c.enqueue(c.neighbors[i], w)
}

// Broadcast queues a message to every neighbor for delivery next round.
// It costs one outbox record however large the degree, and every neighbor
// receives it at the record's place in sender order — where a SendSlot
// loop over Neighbors() would have put it, so the two are
// indistinguishable to every receiver. A reliable round in which every
// sender makes one Broadcast and nothing else takes the broadcast pull
// (see deliver). A vertex with no neighbors sends nothing.
//
//congest:hotpath
func (c *Context) Broadcast(w Wire) {
	if len(c.neighbors) > 0 {
		c.enqueue(BroadcastTo, w)
	}
}

// fail records the first model violation observed in this context's shard.
// Nodes within a shard are swept in ascending ID order and shards cover
// ascending contiguous ID ranges, so the surviving error is the lowest
// erring vertex's under every driver.
func (c *Context) fail(err error) {
	if c.shard.err == nil {
		c.shard.err = err
	}
}

// enqueue appends one record — a message to neighbor to, or a whole
// Broadcast when to is BroadcastTo — to the owning shard's outbox, after
// checking the payload against MaxWireBits once per send call. The check
// runs in the sweep under every driver, a distributed worker's included,
// so an oversized message fails every run with the same error before any
// delivery or frame sees it. Only the worker that owns the shard runs
// this node, so the append is race-free, and because nodes within a shard
// are swept in ID order the outbox stays in (sender ID, send call) order.
//
//congest:hotpath
func (c *Context) enqueue(to int32, w Wire) {
	if w.Bits > MaxWireBits {
		//congest:coldpath oversized messages poison the run; the error path may allocate
		c.fail(fmt.Errorf("congest: node %d message of %d bits exceeds the %d-bit CONGEST budget",
			c.id, w.Bits, MaxWireBits))
		return
	}
	sh := c.shard
	if len(sh.out) == cap(sh.out) {
		sh.growOutbox()
	}
	sh.out = append(sh.out, Packet{To: to, From: int32(c.id), Wire: w})
}

// growOutbox replaces a full shard outbox with a larger copy. The first
// overflow goes in one step to the range's degree sum, the CONGEST bound
// of one message per edge, which a program of per-neighbor sends (forest
// orientation, say) reaches; append would climb there in 1.25× steps. A
// program past that bound doubles from there.
//
//congest:coldpath
func (sh *shard) growOutbox() {
	off := sh.rows.Off
	out := make([]Packet, len(sh.out), max(int(off[len(off)-1]-off[0]), 2*cap(sh.out)))
	copy(out, sh.out)
	sh.out = out
}

// Halt marks this node finished. Messages queued in the same call are still
// delivered, but the node receives no further Round calls.
func (c *Context) Halt() { c.shard.halting = true }

// Emit records a program-defined node-state transition on the run's
// execution trace (a trace.EvNodeState event with this vertex, the given
// code, and the given value — by convention code is a mis/proto
// announcement kind, or a code of the program's own above them). It is a
// no-op when no trace sink is attached, so
// programs can instrument transitions unconditionally. Emission order is
// deterministic across drivers: events ride the same shard-ordered merge
// as messages.
func (c *Context) Emit(code int32, value int64) {
	if !c.shard.traced {
		return
	}
	c.shard.events = append(c.shard.events, trace.Event{
		Type:  trace.EvNodeState,
		Round: int32(c.shard.round),
		V:     int32(c.id),
		X:     int64(code),
		Y:     value,
	})
}

// DriverKind selects the execution strategy for a run.
type DriverKind int

const (
	// DriverSequential sweeps vertices in ID order on one goroutine. This
	// is the zero value.
	DriverSequential DriverKind = iota
	// DriverPool is the sharded worker-pool driver: GOMAXPROCS workers
	// (override with Options.Workers) each own a contiguous vertex shard.
	DriverPool
	// DriverDistributed runs every shard in a separate OS process: the
	// coordinator exchanges round-batched frames with a fleet of shard
	// worker processes over unix sockets (see internal/distrib), performing
	// all fault/RNG draws itself in global sender order so executions stay
	// bit-identical with the in-process drivers. Requires Options.Fleet.
	DriverDistributed
)

// String names the driver for reports and benchmark output.
func (k DriverKind) String() string {
	switch k {
	case DriverSequential:
		return "sequential"
	case DriverPool:
		return "pool"
	case DriverDistributed:
		return "distributed"
	}
	return fmt.Sprintf("DriverKind(%d)", int(k))
}

// Options configures a run.
type Options struct {
	// Seed is the root seed; node v's stream is Split(v) of it.
	Seed uint64
	// MaxRounds aborts the run if the program has not halted by then.
	// Zero means the DefaultMaxRounds safety net.
	MaxRounds int
	// Driver selects the execution strategy; the zero value is
	// DriverSequential.
	Driver DriverKind
	// Workers is the worker/shard count for the pool driver. Zero or
	// negative means GOMAXPROCS; the count is clamped to the vertex count.
	Workers int
	// Faults, when non-nil, is the fault-injection plan for the run: it
	// decides the fate of every message (drop, delay) and every vertex
	// (crash-stop, crash-restart) per round. Plans are consulted on the
	// coordinator in global sender order with a dedicated RNG stream split
	// from Seed, so faulted runs stay bit-identical across drivers. Uniform
	// message loss at rate p is faultsim.BernoulliDrop{P: p}. This
	// deliberately breaks the reliable-delivery assumption of CONGEST; it
	// exists for robustness experiments only.
	Faults faultsim.Plan
	// Events, when non-nil, receives the run's typed execution-event
	// stream (see internal/trace): round boundaries and counters, fault
	// fates, node halts and program-emitted state transitions, and RNG
	// draw totals. Emission happens on the coordinator in an order that is
	// deterministic across drivers; tracing is purely observational and a
	// traced run is bit-identical to an untraced one. Attach a
	// trace.Recorder here to fingerprint a run, a trace.MemorySink to
	// capture it, or a trace.JSONLSink to write it to a file; a sink that
	// reads trace.EvRoundEnd (Round, V = nodes still live, X = messages
	// sent) sees the run round by round.
	Events trace.Sink
	// EventTiming, when set alongside Events, adds the pool driver's
	// wall-clock shard-sweep and merge timing events (trace.EvShardBusy,
	// trace.EvMerge) and the distributed driver's frame records
	// (trace.EvFrame). They are advisory: real durations and byte counts,
	// not deterministic values.
	EventTiming bool
	// Fleet, when Driver is DriverDistributed, is the shard-worker fleet
	// the coordinator drives: one connection per contiguous vertex shard,
	// each backed by a separate OS process (see internal/distrib for the
	// socket transports). The fleet also serves as the respawn point for
	// crash recovery — a shard whose connection breaks mid-run is
	// restarted via Fleet.Shard and fast-forwarded from the coordinator's
	// round-input log. Ignored by the in-process drivers.
	Fleet Fleet
}

// DefaultMaxRounds bounds runaway programs. It is generous: every algorithm
// in this repository finishes in O(log² n) rounds with overwhelming
// probability.
const DefaultMaxRounds = 1 << 20

// Result summarizes a completed run.
type Result struct {
	// Rounds is the number of communication rounds that ran to completion
	// (Init is round 0 and not counted; a program that halts every node in
	// Init reports 0). A round aborted mid-flight — by a model violation
	// such as a send to a non-neighbor — is not counted.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the sum of payload sizes over all delivered messages.
	TotalBits int64
	// MaxMessageBits is the largest single payload observed.
	MaxMessageBits int
	// Dropped counts messages discarded by fault injection — random and
	// structured losses plus messages addressed to a crashed vertex.
	Dropped int64
	// Delayed counts messages the fault plan deferred to a later round.
	// A deferred message that is eventually delivered also counts in
	// Messages; one still in flight when the run ends does not.
	Delayed int64
}

// ErrMaxRounds reports that a run was aborted before all nodes halted.
var ErrMaxRounds = errors.New("congest: max rounds exceeded before all nodes halted")

// Runner executes a program over a graph. Construct with NewRunner. A
// Runner runs once per set-up: Run may be called once after NewRunner or
// Reset, which rebinds the Runner to another graph, factory and options
// and lets the next Run reuse the last run's buffers.
type Runner struct {
	g       *graph.Graph
	nodes   []Node   // indexed by vertex ID; in-process drivers only
	outputs []uint64 // DriverDistributed: vertex v's shipped output word
	opts    Options
	ran     bool
	st      *execState // the last run's state, which the next run's set-up reuses
}

// NewRunner builds a runner for the given graph: a zero Runner bound by
// Reset.
func NewRunner(g *graph.Graph, factory func(v int) Node, opts Options) *Runner {
	r := new(Runner)
	r.Reset(g, factory, opts)
	return r
}

// Reset binds the Runner to graph g, factory and opts for one Run.
// factory(v) must return the state machine for vertex v. Reset calls it
// once per vertex, from one goroutine, in ascending ID order, so a
// factory may hold unsynchronized state — every program factory in this
// repository carves its nodes from its own slab (mis/base.Slab) — and may
// serve several Runners, or one Runner rebound many times. Under
// DriverDistributed the nodes live in the shard workers, which build them
// from the fleet's own factory: Reset calls no factory, which may be nil,
// and holds only the n output words the workers ship back.
//
// The next Run reuses each buffer of the last run that is large enough —
// the node table and every table of the run's state — and nothing else
// of that run: no message in flight, withheld pair, vertex fate or
// buffered event survives, marks read zero at Init, frontiers start full
// and Result at zero. Rebinding costs O(the new run): the node table is
// cleared past g.N() only up to the last run's length. Reset must not be
// called while Run is in progress.
func (r *Runner) Reset(g *graph.Graph, factory func(v int) Node, opts Options) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	n, last := g.N(), len(r.nodes)
	r.g, r.opts, r.ran = g, opts, false
	if opts.Driver == DriverDistributed {
		r.nodes, r.outputs = nil, make([]uint64, n)
		return
	}
	r.nodes = resize(r.nodes, n)
	clear(r.nodes[n:max(n, last)])
	for v := range r.nodes {
		r.nodes[v] = factory(v)
	}
}

// resize returns s at length n: s itself, resliced, when its capacity
// suffices, else a new slice. Entries s held keep their values, so the
// caller writes or clears what it reads.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Node returns vertex v's state machine, for reading an in-process run's
// program-specific outputs after Run. A distributed run has no nodes on
// the coordinator, so Node panics there; read its outputs with Export.
func (r *Runner) Node(v int) Node { return r.nodes[v] }

// Export returns vertex v's output word after Run, its node's
// Porter.ExportState: in process it asks the node, and in a distributed
// run it returns the word v's worker shipped back. It panics if the node
// does not implement Porter (a wiring bug).
func (r *Runner) Export(v int) uint64 {
	if r.opts.Driver == DriverDistributed {
		return r.outputs[v]
	}
	p, ok := r.nodes[v].(Porter)
	if !ok {
		panic(fmt.Sprintf("congest: node %d (%T) does not implement Porter", v, r.nodes[v]))
	}
	return p.ExportState()
}

// Run executes the program to completion and returns run statistics. It
// returns ErrMaxRounds if any node is still live at the round limit, or the
// first model violation (send to non-neighbor, message above MaxWireBits)
// detected.
func (r *Runner) Run() (Result, error) {
	if r.ran {
		return Result{}, errors.New("congest: Runner already ran; Reset it to run again")
	}
	r.ran = true
	switch r.opts.Driver {
	case DriverPool:
		return r.runPool()
	case DriverDistributed:
		return r.runDistributed()
	default:
		return r.runSequential()
	}
}

// shard is a contiguous vertex range [lo, hi) owned by one worker, and
// what its sweep runs: the range's CSR rows, nodes and node streams, each
// indexed by v - lo — in process a view of the run's graph and sub-slices
// of the run-wide tables, in a distributed worker its own. Its outbox
// accumulates the records its nodes send during a sweep, in (sender ID,
// send call) order; its frontier is a dense bitset of the not-yet-halted
// vertices in the range (see frontier.go). The range is fixed at set-up.
// Only the owning worker touches a shard during a sweep; the coordinator
// reads it between sweeps.
type shard struct {
	ctx       Context       // the shard's one Context, re-pointed at each vertex the sweep visits
	lo, hi    int           // owned contiguous vertex range [lo, hi)
	n         int           // the run's vertex count, for Context.N
	rows      graph.Rows    // the range's CSR rows
	nodes     []Node        // nodes[v-lo] is vertex v's state machine
	rngs      []rng.RNG     // rngs[v-lo] is vertex v's stream
	frontier  []uint64      // live bitset over [lo, hi); word 0 starts at (lo>>6)<<6
	liveCount int           // set bits in frontier (O(1) empty-shard skip)
	fates     []VertexFate  // the round's non-Up vertex fates in the range, ascending (see scanFates)
	out       []Packet      // records sent during the sweep (see sizeOutboxes)
	inbox     []Message     // inbox scratch both pulls build in, at full length: at least the range's widest row
	marks     []uint8       // the rows' per-neighbor-slot program marks, allocated on first use (Context.Marks)
	events    []trace.Event // program/halt events buffered during the sweep
	halted    []int32       // the round's halts, listed only in a distributed worker (listHalts)
	err       error         // first model violation or panic by a node of this shard
	round     int           // round being swept (0 = Init)
	halting   bool          // set by Context.Halt during a node call; the sweep consumes it
	traced    bool          // an event sink is attached: buffer Emit and halt events
	listHalts bool          // a distributed worker's shard, which reports its halts

	// The broadcast pull's input (see deliverPull), shared by every shard
	// of a run: senders flags the round's senders, one bit per vertex, and
	// wires[u] holds sender u's Broadcast payload.
	senders []uint64
	wires   []Wire

	// The record pull's input for the round the sweep consumes (see pull
	// and indexRecords): the round's records in global sender order, the
	// indices of its Broadcast records and, per sender, the first of them —
	// all three shared by every shard of a run — and this shard's direct
	// keys, withheld pairs and due late messages, with the sweep's cursor
	// into each.
	recs                     []Packet
	bcast                    []int32  // indices in recs of the Broadcast records, ascending
	first                    []int32  // first[u] = 1 + the index in bcast of sender u's first Broadcast (stale when u made none; see pull)
	direct                   []uint64 // this shard's addressed records, recipient<<32 | record index, ascending
	held                     []Withheld
	late                     []Packet
	directAt, heldAt, lateAt int
}

// execState is the driver-independent bookkeeping for a run.
type execState struct {
	// g is the run's graph: each in-process shard sweeps a view of its
	// rows, and the fate walk expands a Broadcast record over
	// g.Neighbors(sender).
	g      *graph.Graph
	shards []*shard
	// rngs holds every node's RNG stream, rngs[v] = Split(v) of the run
	// seed: one pointer-free run-wide table the collector never scans, of
	// which each shard sweeps its range. The distributed coordinator never
	// sweeps, so its table is nil.
	rngs []rng.RNG

	// The broadcast pull's state (see deliverPull): pull reports that the
	// round the next sweep consumes takes the broadcast pull, and senders
	// and wires are the tables every shard reads it from. They exist only
	// in a reliable in-process run, the only kind that can take it.
	pull    bool
	senders []uint64
	wires   []Wire

	live      int
	res       Result
	plan      faultsim.Plan    // Options.Faults (nil = reliable network)
	faults    *rng.RNG         // coordinator-owned fault stream
	delayed   map[int][]Packet // in-flight messages keyed by consumption round, To the recipient
	delayFree [][]Packet       // drained delay buckets, kept for reuse
	sent      int64            // messages handed to delivery, any fate
	observed  int64            // sends already reported on the bus

	// outbox is the one backing array every shard outbox is carved from
	// (see sizeOutboxes). The distributed coordinator sends nothing
	// itself: its workers' packets go straight into records, so it has no
	// outbox.
	outbox []Packet

	// Event-bus state (see events.go). bus is Options.Events: nil when
	// nothing listens.
	bus            trace.Sink
	lastDelivered  int64 // round-delta trackers for EvRoundEnd/EvRNG
	lastDropped    int64
	lastDraws      uint64
	lastFaultDraws uint64

	// The record pull's state. records are the round's send records in
	// global sender order: in-process, the shard outboxes concatenated
	// into one reused buffer and indexed into bcast, first and direct (see
	// gatherRecords); in the distributed coordinator, a fresh exact-size
	// slice per round that the next round's inputs ship. withheld and late
	// are reused scratch in which a faulted round collects the pairs the
	// plan withheld and the delayed messages it admitted (see
	// deliverRecords), sorted and split by shard before the next sweep.
	records  []Packet
	bcast    []int32
	first    []int32
	direct   []uint64
	withheld []Withheld
	late     []Packet

	// Distributed-driver state: when remote is set, node RNG draws happen
	// in the shard worker processes and remoteDraws (the sum of the
	// workers' cumulative draw counts) replaces endRound's scan of the
	// stream table, which the coordinator does not hold.
	remote      bool
	remoteDraws uint64
}

// newExecState prepares the run's state: the node streams and the shards,
// each with its Context. Shard boundaries split the vertex range into
// numShards near-equal contiguous pieces, shard s owning [s·n/numShards,
// (s+1)·n/numShards) for the whole run. An in-process shard sweeps its
// part of the run's graph, nodes and streams; the distributed
// coordinator's shards only mirror their workers' frontiers. The state is
// the last run's, rebuilt in place (see Reset).
func (r *Runner) newExecState(numShards int) *execState {
	n := r.g.N()
	numShards = max(1, min(numShards, n))
	st := r.st
	if st == nil {
		st = new(execState)
		r.st = st
	}
	remote := r.opts.Driver == DriverDistributed
	records, senders, wires := st.records[:0], st.senders, st.wires
	if st.remote {
		records = nil // a distributed run's records are its recovery log's, as shipped
	}
	if len(st.shards) > numShards {
		clear(st.shards[numShards:]) // with the graph and nodes they hold
	}
	clear(st.delayed) // the last run's messages still in flight
	*st = execState{
		g: r.g, shards: resize(st.shards, numShards), live: n,
		plan: r.opts.Faults, bus: r.opts.Events, remote: remote,
		// The last run's tables, sized below or emptied here.
		rngs: st.rngs, first: st.first, outbox: st.outbox, records: records,
		bcast: st.bcast[:0], direct: st.direct[:0], withheld: st.withheld[:0], late: st.late[:0],
		delayed: st.delayed, delayFree: st.delayFree,
	}
	root := rng.New(r.opts.Seed)
	if st.plan != nil {
		st.faults = root.Split(^uint64(0))
	}
	if !remote {
		st.first = resize(st.first, n)
		if st.plan == nil { // the only kind of run that can take the broadcast pull
			st.senders, st.wires = resize(senders, (n+63)>>6), resize(wires, n)
		} else {
			// A faulted run takes the record pull every round: reserve its
			// records at one send call per vertex, as the outbox, their
			// Broadcast index alike, and n/8 withheld pairs, above the
			// 0.084n that Métivier under 2% drops on a union of two trees
			// withholds at most in a round (n = 2^14, 60 runs). The rest of
			// its scratch grows by append.
			st.records, st.bcast = resize(st.records, n)[:0], resize(st.bcast, n)[:0]
			st.withheld = resize(st.withheld, n/8)[:0]
		}
		st.rngs = resize(st.rngs, n)
	}
	for s, sh := range st.shards {
		if sh == nil {
			sh = new(shard)
			st.shards[s] = sh
		}
		lo, hi := s*n/numShards, (s+1)*n/numShards
		sh.reset(lo, hi, n, st.bus != nil)
		if !remote {
			sh.rows, sh.nodes, sh.rngs = r.g.Rows(lo, hi), r.nodes[lo:hi], st.rngs[lo:hi]
			sh.senders, sh.wires = st.senders, st.wires
		}
	}
	if !remote {
		st.outbox = resize(st.outbox, n)
		st.sizeOutboxes()
		// The stream table is filled last. Its loop is the set-up's
		// longest, and a GC cycle that stops the goroutine inside it
		// scans this frame conservatively: a local not yet written by
		// this run could still point at the previous run's shards and
		// keep all of that run's tables alive for another cycle.
		for v := range st.rngs {
			st.rngs[v] = *root.Split(uint64(v))
		}
	}
	return st
}

// reset readies the shard for the range [lo, hi) of an n-vertex run,
// every vertex live, holding its one Context. It keeps the arrays of the
// last run's frontier, vertex fates, inbox scratch, marks and event
// buffer, emptied, and nothing else of that run.
func (sh *shard) reset(lo, hi, n int, traced bool) {
	*sh = shard{n: n, traced: traced, frontier: sh.frontier, inbox: sh.inbox,
		fates: sh.fates[:0], marks: sh.marks[:0], events: sh.events[:0]}
	sh.ctx.shard = sh
	sh.resetFrontier(lo, hi)
}

// sizeOutboxes carves every shard outbox from the run's single backing
// array, sizes every shard's inbox scratch and points each shard at the
// run-wide Broadcast table (first). An outbox holds send calls, not messages, and a
// vertex that broadcasts once per round — every program on the paper's
// path — makes one call, so a shard reserves one record per vertex of its
// range: the shard ranges partition [0, n), and shard [lo, hi) owns
// outbox[lo:hi]. Shard ranges never change within a run, so newExecState
// calls sizeOutboxes once a run. Every outbox is capped with a three-index slice: a
// program that makes more send calls than reserved grows its own shard's
// outbox (growOutbox) and never writes into a neighbor's range. An inbox
// under one message per edge holds at most one message per neighbor, so a
// shard's scratch starts as long as its range's widest row; the record
// pull grows it for late messages or several calls by one sender.
func (st *execState) sizeOutboxes() {
	for _, sh := range st.shards {
		sh.inbox = resize(sh.inbox, widestRow(sh.rows))
		sh.first = st.first
		sh.out = st.outbox[sh.lo:sh.lo:sh.hi]
	}
}

// widestRow returns the largest degree among the vertices rows covers.
func widestRow(rows graph.Rows) (widest int) {
	for i := 1; i < len(rows.Off); i++ {
		widest = max(widest, int(rows.Off[i]-rows.Off[i-1]))
	}
	return widest
}

// sweep runs one round for every live node of the shard, in ascending ID
// order by iterating the frontier bitset word by word (set bits resolve
// low-to-high via TrailingZeros64, so bit order is ID order); pull says
// whether the round takes the broadcast pull. It is the one sweep of
// every driver: a pool worker runs it on its shard, the sequential driver
// on its only one, a distributed worker in ShardWorker.Sweep. A halted
// node's bit is cleared. The sweep never consults the fault plan: it
// reads the round's vertex fates, drawn on the coordinator (scanFates),
// with a cursor, skips a vertex that is down and retires one that is gone
// for good — in process scanFates has already retired it. The shard's
// Context is re-pointed at each vertex before its call; only this shard's
// worker writes it. A node that panics ends the sweep with the shard's
// error (see recoverPanic).
//
//congest:hotpath
func (sh *shard) sweep(round int, pull bool) {
	defer sh.recoverPanic(round)
	sh.round = round
	ctx := &sh.ctx
	lo, frontier, rows, nodes, rngs := sh.lo, sh.frontier, sh.rows, sh.nodes, sh.rngs
	fates, f := sh.fates, 0
	base := lo >> 6
	for wi := range frontier {
		w := frontier[wi]
		if w == 0 {
			continue
		}
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			v := vbase + b
			for f < len(fates) && int(fates[f].V) < v {
				f++
			}
			if f < len(fates) && int(fates[f].V) == v {
				if fates[f].Fate == int32(faultsim.VertexGone) {
					frontier[wi] &^= 1 << uint(b)
					sh.liveCount--
				}
				continue
			}
			i := v - lo
			ctx.id, ctx.neighbors, ctx.rng = v, rows.Neighbors(v), &rngs[i]
			switch {
			case round == 0:
				nodes[i].Init(ctx)
			case pull:
				nodes[i].Round(ctx, sh.pullInbox(ctx.neighbors))
			default:
				nodes[i].Round(ctx, sh.pull(v, ctx.neighbors))
			}
			if sh.halting {
				sh.halting = false
				frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
				if sh.listHalts {
					sh.halted = append(sh.halted, int32(v))
				}
				if sh.traced {
					sh.events = append(sh.events, trace.Event{
						Type: trace.EvHalt, Round: int32(round), V: int32(v),
					})
				}
			}
		}
	}
}

// recoverPanic, deferred by the sweep, turns a node's panic into the
// shard's error, naming the vertex and round, unless a lower vertex of the
// shard already failed — the precedence model violations have. The sweep
// ends there, and the run fails with that error under every driver: a
// pool worker goroutine survives to report it, and a distributed worker
// ships it in RoundOutput.Err.
//
//congest:coldpath
func (sh *shard) recoverPanic(round int) {
	if p := recover(); p != nil && sh.err == nil {
		sh.err = fmt.Errorf("congest: vertex %d panicked in round %d: %v", sh.ctx.id, round, p)
	}
}

// pullInbox builds a live vertex's inbox by the broadcast pull, in the
// shard's scratch: the vertex's CSR row filtered to the neighbors flagged
// as senders, each with its wire. The row is ascending, so the inbox holds
// one message per sender in sender order — the inbox the record pull
// would build from the same round. It writes the scratch by index, which
// is why the scratch stays at full length.
//
//congest:hotpath
func (sh *shard) pullInbox(row []int32) []Message {
	buf, senders, wires, k := sh.inbox, sh.senders, sh.wires, 0
	for _, u := range row {
		if senders[u>>6]&(1<<(uint32(u)&63)) != 0 {
			buf[k] = Message{From: int(u), Wire: wires[u]}
			k++
		}
	}
	return buf[:k:k]
}

// pull builds live vertex v's inbox by the record pull, in the shard's
// scratch: v's late messages in deferral order, then every record that
// reaches v in record order — (sender, call) order — less the pairs the
// plan withheld: v's direct keys merged by record index with the
// Broadcasts of each neighbor in row order. The late messages, direct
// keys and withheld pairs are sorted by recipient and the sweep visits
// vertices in ascending order, so one cursor over each serves the whole
// sweep, and a round's pulls cost O(messages) plus, if anyone broadcast,
// the swept rows. first is never cleared, not even when Reset rebinds
// the Runner: an entry left from an earlier round or run points past
// bcast or at another sender's Broadcast, which the walk over u's
// Broadcasts rejects. The sweep builds every record-round
// inbox here, under every driver.
//
//congest:hotpath
func (sh *shard) pull(v int, row []int32) []Message {
	buf := sh.inbox[:0]
	to := int32(v)
	late, direct, bcast, recs := sh.late, sh.direct, sh.bcast, sh.recs
	i := sh.lateAt
	for ; i < len(late) && late[i].To <= to; i++ {
		if late[i].To == to {
			buf = append(buf, Message{From: int(late[i].From), Wire: late[i].Wire})
		}
	}
	sh.lateAt = i
	// v's direct keys are [key, key+1<<32): recipient v, any record.
	key, d := uint64(v)<<32, sh.directAt
	for d < len(direct) && direct[d] < key {
		d++
	}
	if len(bcast) > 0 {
		for _, u := range row {
			f := sh.first[u]
			if f == 0 {
				continue
			}
			for j := int(f) - 1; j < len(bcast) && recs[bcast[j]].From == u; j++ {
				b := bcast[j]
				for ; d < len(direct) && direct[d] < key|uint64(b); d++ {
					buf = sh.take(buf, to, int32(uint32(direct[d])))
				}
				buf = sh.take(buf, to, b)
			}
		}
	}
	for ; d < len(direct) && direct[d] < key+1<<32; d++ {
		buf = sh.take(buf, to, int32(uint32(direct[d])))
	}
	sh.directAt = d
	sh.inbox = buf[:cap(buf)]
	return buf[:len(buf):len(buf)]
}

// take appends record rec to recipient to's inbox unless the plan
// withheld the pair. pull hands it the (recipient, record) pairs in
// ascending order, and the withheld pairs are sorted the same way, so the
// withheld cursor only moves forward.
//
//congest:hotpath
func (sh *shard) take(buf []Message, to, rec int32) []Message {
	pair, held, h := Withheld{To: to, Rec: rec}, sh.held, sh.heldAt
	for h < len(held) && cmpWithheld(held[h], pair) < 0 {
		h++
	}
	if sh.heldAt = h; h < len(held) && held[h] == pair {
		sh.heldAt++
		return buf
	}
	p := sh.recs[rec]
	return append(buf, Message{From: int(p.From), Wire: p.Wire})
}

// indexRecords indexes a round's records, which are in sender order, for
// the record pull: it appends the index of every Broadcast record to
// bcast, sets first[u] to 1 + the position in bcast of sender u's first
// Broadcast, and appends the key recipient<<32 | index of every record
// addressed to a recipient in [lo, hi) to direct, sorted — by recipient,
// then by record; direct grows at most once a round, to at most the
// round's record count. It returns the two lists.
//
//congest:hotpath
func indexRecords(recs []Packet, first, bcast []int32, direct []uint64, lo, hi int) ([]int32, []uint64) {
	for i, p := range recs {
		switch {
		case p.To == BroadcastTo:
			if len(bcast) == 0 || recs[bcast[len(bcast)-1]].From != p.From {
				first[p.From] = int32(len(bcast) + 1)
			}
			bcast = append(bcast, int32(i))
		case int(p.To) >= lo && int(p.To) < hi:
			if len(direct) == cap(direct) {
				direct = slices.Grow(direct, len(recs)-i)
			}
			direct = append(direct, uint64(p.To)<<32|uint64(i))
		}
	}
	slices.Sort(direct)
	return bcast, direct
}

// deliver hands every shard's outbox to the next round's inboxes,
// applying the fault plan and accounting. round is the round that was just
// swept (the send round); its messages are consumed in round+1. It returns
// the first model violation recorded by any shard (shards cover ascending
// contiguous ID ranges and sweep in ID order, so the reported error is the
// lowest erring vertex's under every driver).
//
// Delivery deposits nothing: the sweep of round+1 builds every inbox by
// pull, and the round's outbox shape picks which (see the package doc). A
// reliable in-process round of exactly one Broadcast per sender takes the
// broadcast pull (deliverPull). Every other round takes the record pull:
// in process, gatherRecords concatenates and indexes the shard outboxes
// into the round's records (the distributed coordinator already holds
// them, merged from its workers' packets); deliverRecords accounts the
// round or, under a fault plan, walks every message's fate in global
// sender order; and in process split hands every shard its part of the
// direct keys, withheld pairs and late messages, as the distributed sweep
// ships its workers theirs.
//
//congest:hotpath
func (r *Runner) deliver(st *execState, round int) error {
	for _, sh := range st.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	st.drainShardEvents()
	st.pull = st.senders != nil && st.deliverPull()
	switch {
	case st.pull:
	case st.remote:
		st.deliverRecords(round)
	default:
		st.gatherRecords()
		st.deliverRecords(round)
		st.split(st.withheld, st.late, st.direct)
	}
	for _, sh := range st.shards {
		sh.out = sh.out[:0]
	}
	return nil
}

// deliverPull takes the broadcast pull if the round's outboxes have the
// shape it needs: at least one record, every record a Broadcast, and
// senders strictly ascending across the shard outboxes in shard order, so
// each sender made exactly one call. It flags each sender, parks the
// sender's wire in its slot and accounts deg(sender) messages exactly as
// deliverRecords would: O(records) work plus clearing an n-bit bitset. On
// any other shape it reports false and the record pull runs; the flags it
// set before it stopped are never read, since the next broadcast-pull
// round clears them first.
//
//congest:hotpath
func (st *execState) deliverPull() bool {
	clear(st.senders)
	prev := -1
	var total, maxBits int
	var totalBits int64
	for _, sh := range st.shards {
		for _, p := range sh.out {
			u := int(p.From)
			if p.To != BroadcastTo || u <= prev {
				return false
			}
			prev = u
			st.senders[u>>6] |= 1 << (uint(u) & 63)
			st.wires[u] = p.Wire
			deg, bits := st.g.Degree(u), int(p.Wire.Bits)
			total += deg
			totalBits += int64(deg * bits)
			maxBits = max(maxBits, bits)
		}
	}
	if prev < 0 {
		return false // a silent round: the record pull gives each empty inbox in O(1), not a row scan
	}
	st.account(total, totalBits, maxBits)
	return true
}

// gatherRecords makes an in-process round's records: it concatenates the
// shard outboxes, in shard order, into one buffer reused across rounds and
// grown at most once a round, indexes them (indexRecords, over the whole
// vertex range; split cuts the direct keys by shard), and hands the
// records and their Broadcast index to every shard.
//
//congest:hotpath
func (st *execState) gatherRecords() {
	total := 0
	for _, sh := range st.shards {
		total += len(sh.out)
	}
	recs := slices.Grow(st.records[:0], total)
	for _, sh := range st.shards {
		recs = append(recs, sh.out...)
	}
	st.records = recs
	st.bcast, st.direct = indexRecords(recs, st.first, st.bcast[:0], st.direct[:0], 0, st.g.N())
	for _, sh := range st.shards {
		sh.recs, sh.bcast = recs, st.bcast
	}
}

// cmpWithheld orders withheld pairs, which are unique, by recipient and
// then by record: the order the record pull walks them in.
func cmpWithheld(a, b Withheld) int {
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	return cmp.Compare(a.Rec, b.Rec)
}

// cmpLateTo orders late messages by recipient.
func cmpLateTo(a, b Packet) int { return cmp.Compare(a.To, b.To) }

// split sorts a round's withheld pairs and late messages in place into
// the order the record pull walks them in — by recipient, the late
// messages stably so that each recipient's stay in deferral order — gives
// every shard its part of them and of the direct keys, which
// indexRecords sorted, and rewinds the shard's cursors. Shards cover
// ascending contiguous ranges, so each part is a prefix of what the
// shards before it left.
//
//congest:hotpath
func (st *execState) split(held []Withheld, late []Packet, direct []uint64) {
	slices.SortFunc(held, cmpWithheld)
	slices.SortStableFunc(late, cmpLateTo)
	for _, sh := range st.shards {
		k := 0
		for k < len(held) && int(held[k].To) < sh.hi {
			k++
		}
		sh.held, held = held[:k:k], held[k:]
		k = 0
		for k < len(late) && int(late[k].To) < sh.hi {
			k++
		}
		sh.late, late = late[:k:k], late[k:]
		k = 0
		for k < len(direct) && direct[k] < uint64(sh.hi)<<32 {
			k++
		}
		sh.direct, direct = direct[:k:k], direct[k:]
		sh.directAt, sh.heldAt, sh.lateAt = 0, 0, 0
	}
}

// account folds a reliable round's delivered messages into the run
// counters: every message sent is delivered.
//
//congest:hotpath
func (st *execState) account(total int, totalBits int64, maxBits int) {
	st.sent += int64(total)
	st.res.Messages += int64(total)
	st.res.TotalBits += totalBits
	st.res.MaxMessageBits = max(st.res.MaxMessageBits, maxBits)
}

// deliverRecords delivers a record round; it deposits nothing, since the
// next sweep pulls. On a reliable network it only accounts the round, in
// O(records) as deliverPull does. Under a fault plan it walks the records
// in (sender, call, neighbor) order — a Broadcast expanded over its
// sender's row, the delayed messages due next round first — drawing every
// fate through route and admit, and collects the withheld (recipient,
// record) pairs and the admitted late messages for the next sweep. A
// message route passes but admit refuses goes to a vertex that is down
// next round; that vertex is not swept, so nothing needs to withhold it.
//
//congest:hotpath
func (st *execState) deliverRecords(round int) {
	if st.plan == nil {
		var total, maxBits int
		var totalBits int64
		for _, p := range st.records {
			k, bits := 1, int(p.Wire.Bits)
			if p.To == BroadcastTo {
				k = st.g.Degree(int(p.From))
			}
			total += k
			totalBits += int64(k * bits)
			maxBits = max(maxBits, bits)
		}
		st.account(total, totalBits, maxBits)
		return
	}
	consume := round + 1
	st.withheld, st.late = st.withheld[:0], st.late[:0]
	if due := st.delayed[consume]; due != nil {
		for _, p := range due {
			if st.admit(p, consume) {
				st.late = append(st.late, p)
			}
		}
		st.delayFree = append(st.delayFree, due[:0])
		delete(st.delayed, consume)
	}
	for i, p := range st.records {
		if p.To != BroadcastTo {
			st.walkFate(p, i, round)
			continue
		}
		for _, q := range st.g.Neighbors(int(p.From)) {
			p.To = q
			st.walkFate(p, i, round)
		}
	}
}

// walkFate draws the fate of one message p of record rec: a message route
// passes is admitted for next round, and one it drops or delays is
// withheld from its recipient's pull.
//
//congest:hotpath
func (st *execState) walkFate(p Packet, rec, round int) {
	if st.route(p, round) {
		st.admit(p, round+1)
		return
	}
	st.withheld = append(st.withheld, Withheld{To: p.To, Rec: int32(rec)})
}

// route draws one sent message's fate from the plan: it drops the message
// or defers it to a later round and reports false, or reports true when
// the message is due next round, for the caller to admit.
//
//congest:hotpath
func (st *execState) route(p Packet, round int) bool {
	st.sent++
	fate := st.plan.Message(round, int(p.From), int(p.To), st.faults)
	if fate.Drop {
		st.res.Dropped++
		if st.bus != nil {
			st.bus.Emit(trace.Event{
				Type: trace.EvDrop, Round: int32(round),
				V: p.From, W: p.To,
			})
		}
		return false
	}
	if fate.Delay > 0 {
		if st.delayed == nil {
			//congest:coldpath first delay fault of the run allocates the bucket map once
			st.delayed = make(map[int][]Packet)
		}
		at := round + 1 + fate.Delay
		st.delayed[at] = st.appendDelayed(st.delayed[at], p)
		st.res.Delayed++
		if st.bus != nil {
			st.bus.Emit(trace.Event{
				Type: trace.EvDelay, Round: int32(round),
				V: p.From, W: p.To, X: int64(fate.Delay),
			})
		}
		return false
	}
	return true
}

// appendDelayed appends to a delay bucket, seeding empty buckets from the
// free list of previously drained ones so steady-state delay traffic
// reuses buffers instead of allocating.
//
//congest:hotpath
func (st *execState) appendDelayed(bucket []Packet, p Packet) []Packet {
	if bucket == nil && len(st.delayFree) > 0 {
		bucket = st.delayFree[len(st.delayFree)-1]
		st.delayFree = st.delayFree[:len(st.delayFree)-1]
	}
	return append(bucket, p)
}

// admit finalizes delivery of one message for the given consumption
// round and folds it into the run counters, unless the plan has the
// recipient crashed then — a dead vertex is not listening, so the message
// is lost. It reports whether the message was delivered.
//
//congest:hotpath
func (st *execState) admit(p Packet, consume int) bool {
	if st.plan.Vertex(consume, int(p.To)) != faultsim.VertexUp {
		st.res.Dropped++
		if st.bus != nil {
			// consume-1 is the round being delivered: event rounds stay
			// nondecreasing within the stream, which Bisect relies on.
			st.bus.Emit(trace.Event{
				Type: trace.EvDrop, Round: int32(consume - 1),
				V: p.From, W: p.To, X: 1,
			})
		}
		return false
	}
	st.res.Messages++
	bits := int(p.Wire.Bits)
	st.res.TotalBits += int64(bits)
	if bits > st.res.MaxMessageBits {
		st.res.MaxMessageBits = bits
	}
	return true
}

// refreshLive recomputes the live-node count from the shard frontiers.
func (st *execState) refreshLive() {
	live := 0
	for _, sh := range st.shards {
		live += sh.liveCount
	}
	st.live = live
}

// runLoop is the coordinator shared by every driver: round 0 (Init), then
// rounds 1, 2, ... until every node has halted, each run by step. sweep
// must run every live node of the round once; afterRound, when non-nil,
// runs after each successfully delivered round, before the round-end
// event (the pool driver publishes its timing events there).
//
// Result.Rounds is committed only after a round's delivery succeeds, so a
// run aborted by a mid-round model violation reports the last *completed*
// round, not the one that failed.
func (r *Runner) runLoop(st *execState, sweep, afterRound func(round int)) (Result, error) {
	for round := 0; round == 0 || st.live > 0; round++ {
		if round > r.opts.MaxRounds {
			return st.res, fmt.Errorf("%w (limit %d, %d nodes live)", ErrMaxRounds, r.opts.MaxRounds, st.live)
		}
		if err := r.step(st, round, sweep, afterRound); err != nil {
			return st.res, err
		}
	}
	return st.res, nil
}

// step is the body of every round under every driver: open the round on
// the event bus, draw the round's vertex fates for every shard on a
// faulted run (scanFates — Init, round 0, always runs), sweep, deliver,
// commit the round and close it on the bus.
func (r *Runner) step(st *execState, round int, sweep, afterRound func(round int)) error {
	r.startRound(st, round)
	if round > 0 && st.plan != nil {
		for _, sh := range st.shards {
			sh.fates = st.scanFates(sh, round, sh.fates[:0])
		}
	}
	sweep(round)
	if err := r.deliver(st, round); err != nil {
		return err
	}
	st.res.Rounds = round
	st.refreshLive()
	if afterRound != nil {
		afterRound(round)
	}
	r.endRound(st, round)
	return nil
}

// scanFates appends to fates the round's non-Up vertex fates for a
// shard's live vertices, ascending, and retires the vertices gone for good
// from the shard's frontier. It runs on the coordinator for every driver,
// so the sweep only reads the list; a distributed worker gets a copy in
// RoundInput.Fates.
//
//congest:hotpath
func (st *execState) scanFates(sh *shard, round int, fates []VertexFate) []VertexFate {
	base := sh.lo >> 6
	for wi, w := range sh.frontier {
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			v := vbase + b
			switch f := st.plan.Vertex(round, v); f {
			case faultsim.VertexGone:
				sh.frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
				fates = append(fates, VertexFate{V: int32(v), Fate: int32(f)})
			case faultsim.VertexDown:
				fates = append(fates, VertexFate{V: int32(v), Fate: int32(f)})
			}
		}
	}
	return fates
}

func (r *Runner) runSequential() (Result, error) {
	st := r.newExecState(1)
	return r.runLoop(st, func(round int) { st.shards[0].sweep(round, st.pull) }, nil)
}
