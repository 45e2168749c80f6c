// Package congest simulates the synchronous CONGEST model of distributed
// computing: one state machine per graph vertex, lock-step rounds, and
// messages between neighbors whose size the engine meters (the CONGEST
// model allows O(log n) bits per edge per round).
//
// Three interchangeable drivers execute a program:
//
//   - the sequential driver sweeps vertices in ID order each round,
//   - the sharded worker-pool driver partitions vertices into contiguous
//     shards, one long-lived worker goroutine per shard (default: the
//     pool driver behind Options.Parallel), and
//   - the legacy goroutine-per-vertex driver, retained only as a
//     benchmark baseline (Options.Driver = DriverGoroutinePerVertex).
//
// All drivers produce bit-identical executions for the same seed. Three
// invariants make scheduling order invisible to programs:
//
//  1. each node owns a private RNG stream split from the run seed by
//     vertex ID (splitting is a pure function, so creation order is
//     irrelevant);
//  2. every driver materializes outgoing messages in ascending sender-ID
//     order — within a shard nodes are swept in ID order, and shards
//     cover contiguous ID ranges merged in shard order — so inboxes are
//     sorted by sender without any per-round sort; and
//  3. fault-injection decisions (the faultsim.Plan consults, including any
//     random draws) happen on the coordinator during delivery, in that
//     same global sender order, from a dedicated fault stream.
//
// Fault injection is delegated to internal/faultsim: Options.Faults
// accepts any faultsim.Plan (message drops, link bursts, partitions,
// vertex crashes and restarts, delivery delays), and the legacy
// Options.DropProb knob is implemented as a faultsim.BernoulliDrop layered
// under the plan.
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Message is a wire payload annotated with its sender's vertex ID. It is
// a plain value (no pointers): messages move from shard outboxes into the
// round's inbox arena by value copy, with zero heap traffic.
type Message struct {
	//idspace:external
	From int
	Wire Wire
}

// Node is one vertex's state machine. Init runs before round 1 and may
// send messages (delivered in round 1). Round runs once per round with the
// messages delivered this round. A node that calls Context.Halt receives no
// further Round calls.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Message)
}

// Context is the per-node view of the network that the engine passes to
// Init and Round. It is only valid during the call it is passed to.
//
// Under a non-identity layout (Options.Layout) the engine stores vertices
// in permuted "internal" order but the context exposes only "external"
// (original) IDs: id, neighbors, and every Message.From are external.
// targets carries the internal ID of each neighbor, pairwise-aligned with
// neighbors, so sends address engine storage without a translation lookup;
// under the identity layout both slices alias the same CSR row.
type Context struct {
	//idspace:external
	id int
	n  int
	//idspace:external
	neighbors []int // external neighbor IDs, ascending
	//idspace:internal
	targets []int // internal neighbor IDs, aligned with neighbors
	// rng is held by value so a run needs no per-node allocation for it.
	// Contexts are only ever addressed in place (&ctxs[v]): a by-value
	// copy of a Context would fork the node's stream.
	rng    rng.RNG
	round  int
	halted bool
	shard  *shard
	runner *Runner
}

type addressed struct {
	//idspace:internal
	to  int
	msg Message
}

// ID returns this vertex's identifier (0..N-1). In CONGEST nodes know their
// own O(log n)-bit ID and those of their neighbors.
func (c *Context) ID() int { return c.id }

// N returns the number of vertices in the network. (Algorithms in this repo
// use it only for parameterization that the model allows — e.g. knowing n
// up to a constant factor.)
func (c *Context) N() int { return c.n }

// Round returns the current round number, starting at 1. During Init it
// returns 0.
func (c *Context) Round() int { return c.round }

// Neighbors returns the sorted neighbor IDs. The slice aliases graph
// storage and must not be modified.
func (c *Context) Neighbors() []int { return c.neighbors }

// Degree returns the vertex degree.
func (c *Context) Degree() int { return len(c.neighbors) }

// RNG returns this node's private random stream. Draws are deterministic
// given the run seed and vertex ID, and no other node shares the stream.
func (c *Context) RNG() *rng.RNG { return &c.rng }

// Send queues a message to neighbor `to` for delivery next round. Sending
// to a non-neighbor is a programming error and poisons the run with an
// error (the model has no routing). Send pays a binary search over the
// neighbor list to validate `to`; hot paths that already know the
// neighbor's position should use SendSlot instead.
func (c *Context) Send(to int, w Wire) {
	i := sort.SearchInts(c.neighbors, to)
	if i >= len(c.neighbors) || c.neighbors[i] != to {
		c.fail(fmt.Errorf("congest: node %d sent to non-neighbor %d", c.id, to))
		return
	}
	c.enqueue(c.targets[i], w)
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
	c.enqueue(c.targets[i], w)
}

// Broadcast queues a message to every neighbor for delivery next round,
// walking the adjacency list directly (no membership checks).
//
//congest:hotpath
func (c *Context) Broadcast(w Wire) {
	for _, v := range c.targets {
		c.enqueue(v, w)
	}
}

// BroadcastWire is Broadcast under the name the slot-addressed API family
// uses; both walk the neighbor slots directly.
//
//congest:hotpath
func (c *Context) BroadcastWire(w Wire) { c.Broadcast(w) }

// fail records the first model violation observed in this context's shard.
// Nodes within a shard are swept in ascending ID order and shards cover
// ascending contiguous ID ranges, so the surviving error is the lowest
// erring vertex's under every driver.
func (c *Context) fail(err error) {
	if c.shard.err == nil {
		c.shard.err = err
	}
}

// enqueue appends to the owning shard's outbox — the destination shard's
// bucket when the run is bucketed, out[0] otherwise. Only the worker that
// owns the shard runs this node, so the append is race-free, and because
// nodes within a shard are swept in ID order every bucket stays sorted by
// sender with per-sender append order preserved.
//
//idspace:internal to
//congest:hotpath
func (c *Context) enqueue(to int, w Wire) {
	if c.runner.opts.MessageBitLimit > 0 && int(w.Bits) > c.runner.opts.MessageBitLimit {
		//congest:coldpath oversized messages poison the run; the error path may allocate
		c.fail(fmt.Errorf("congest: node %d message of %d bits exceeds limit %d",
			c.id, w.Bits, c.runner.opts.MessageBitLimit))
		return
	}
	sh := c.shard
	d := 0
	if sh.vshard != nil {
		d = int(sh.vshard[to])
	}
	sh.out[d] = append(sh.out[d], addressed{to: to, msg: Message{From: c.id, Wire: w}})
}

// Halt marks this node finished. Messages queued in the same call are still
// delivered, but the node receives no further Round calls.
func (c *Context) Halt() { c.halted = true }

// Emit records a program-defined node-state transition on the run's
// execution trace (a trace.EvNodeState event with this vertex, the given
// code, and the given value — by convention code is a mis/proto
// announcement kind). It is a no-op when no trace sink is attached, so
// programs can instrument transitions unconditionally. Emission order is
// deterministic across drivers: events ride the same shard-ordered merge
// as messages.
func (c *Context) Emit(code int32, value int64) {
	if !c.runner.traced {
		return
	}
	c.shard.events = append(c.shard.events, trace.Event{
		Type:  trace.EvNodeState,
		Round: int32(c.round),
		V:     int32(c.id),
		X:     int64(code),
		Y:     value,
	})
}

// DriverKind selects the execution strategy for a run.
type DriverKind int

const (
	// DriverAuto picks the sequential driver, or the worker pool when
	// Options.Parallel is set. This is the zero value.
	DriverAuto DriverKind = iota
	// DriverSequential sweeps vertices in ID order on one goroutine.
	DriverSequential
	// DriverPool is the sharded worker-pool driver: GOMAXPROCS workers
	// (override with Options.Workers) each own a contiguous vertex shard.
	DriverPool
	// DriverGoroutinePerVertex is the legacy driver: one long-lived
	// goroutine and a channel round-trip per vertex per round. It exists
	// as a baseline for BENCH_congest.json and the engine benchmarks;
	// prefer DriverPool for real runs.
	DriverGoroutinePerVertex
	// DriverDistributed runs every shard in a separate OS process: the
	// coordinator exchanges round-batched frames with a fleet of shard
	// workers over unix sockets or TCP (see internal/distrib), performing
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
	case DriverGoroutinePerVertex:
		return "goroutine-per-vertex"
	case DriverDistributed:
		return "distributed"
	default:
		return "auto"
	}
}

// Options configures a run.
type Options struct {
	// Seed is the root seed; node v's stream is Split(v) of it.
	Seed uint64
	// MaxRounds aborts the run if the program has not halted by then.
	// Zero means the DefaultMaxRounds safety net.
	MaxRounds int
	// Parallel selects the sharded worker-pool driver (when Driver is
	// DriverAuto).
	Parallel bool
	// Driver, when not DriverAuto, selects the execution strategy
	// explicitly and takes precedence over Parallel.
	Driver DriverKind
	// Workers is the worker/shard count for the pool driver. Zero or
	// negative means GOMAXPROCS; the count is clamped to the vertex count.
	Workers int
	// MessageBitLimit, when positive, fails the run if any single message
	// exceeds that many bits (CONGEST compliance enforcement).
	MessageBitLimit int
	// Layout names the cache-conscious vertex ordering the engine applies
	// at ingest (see internal/layout): "" or "identity" keeps the original
	// labeling, "degsort" stores vertices by descending degree, "bfs"
	// clusters neighborhoods Cuthill–McKee style. Relabeling is invisible
	// to programs — contexts, messages, trace events, results, and errors
	// all carry original (external) IDs — but it changes the engine's
	// sweep and fault-draw order, so layout is part of run identity: trace
	// fingerprints are pinned per layout, and all drivers stay
	// bit-identical to each other within one. An unknown name fails Run
	// with the parse error.
	Layout string
	// NoRebalance disables the pool driver's live-weighted shard
	// rebalancing (see rebalance.go). Rebalancing re-partitions the
	// contiguous vertex ranges between rounds when the live histogram is
	// skewed; it changes which worker sweeps which vertex but not the
	// deterministic event stream or any program-visible state, so the knob
	// exists only for benchmarking the unbalanced baseline.
	NoRebalance bool
	// DropProb, when positive, drops each message independently with this
	// probability (deterministically, from a fault stream derived from
	// Seed).
	//
	// Deprecated: DropProb is the legacy uniform-loss knob, kept working
	// for callers and experiments that predate structured fault plans. It
	// is implemented as a faultsim.BernoulliDrop composed under Faults;
	// new code should set Faults directly.
	DropProb float64
	// Faults, when non-nil, is the fault-injection plan for the run: it
	// decides the fate of every message (drop, delay) and every vertex
	// (crash-stop, crash-restart) per round. Plans are consulted on the
	// coordinator in global sender order with a dedicated RNG stream split
	// from Seed, so faulted runs stay bit-identical across drivers. When
	// DropProb is also set, the Bernoulli layer is consulted first. This
	// deliberately breaks the reliable-delivery assumption of CONGEST; it
	// exists for robustness experiments only.
	Faults faultsim.Plan
	// Events, when non-nil, receives the run's typed execution-event
	// stream (see internal/trace): round boundaries and counters, fault
	// fates, node halts and program-emitted state transitions, and RNG
	// draw totals. Emission happens on the coordinator in an order that is
	// deterministic across drivers; tracing is purely observational and a
	// traced run is bit-identical to an untraced one. Attach a
	// trace.Recorder here to capture, export, or fingerprint a run.
	Events trace.Sink
	// EventTiming, when set alongside Events, adds the pool driver's
	// wall-clock shard-sweep and merge timing events (advisory: they are
	// real durations, not deterministic values).
	EventTiming bool
	// EventShardFlow, when set alongside Events, adds per-round message
	// counts per (source shard, destination shard) pair (advisory: shard
	// boundaries depend on the driver and worker count).
	EventShardFlow bool
	// Observer, when non-nil, is called after every completed round with
	// the round number, the number of nodes still live after it, and the
	// number of messages sent during it. Round 0 reports Init. It runs on
	// the coordinator (never concurrently) and must not retain the engine.
	//
	// Deprecated: Observer predates the event bus and is kept as a
	// bit-identical adapter over it (it fires on every trace.EvRoundEnd).
	// New code should attach a trace.Sink via Events instead.
	Observer func(round, live int, sent int64)
	// Fleet, when Driver is DriverDistributed, is the shard-worker fleet
	// the coordinator drives: one connection per contiguous vertex shard,
	// each backed by a separate OS process (see internal/distrib for the
	// socket transports). The fleet also serves as the respawn point for
	// crash recovery — a shard whose connection breaks mid-run is
	// restarted via Fleet.Shard and fast-forwarded from the coordinator's
	// round-input log. Ignored by the in-process drivers.
	Fleet Fleet
	// PoolObserver, when non-nil, receives per-round driver-efficiency
	// metrics (per-shard busy time, merge time, live-node histogram) from
	// the pool driver. It runs on the coordinator; the metric's slices are
	// reused between rounds and must not be retained. The sequential and
	// legacy drivers never call it.
	//
	// Deprecated: PoolObserver predates the event bus and is kept as an
	// adapter over its timing events (trace.EvShardBusy / trace.EvMerge).
	// New code should set Events with EventTiming instead.
	PoolObserver func(m PoolRoundMetrics)
}

// driverKind resolves the configured driver.
func (o Options) driverKind() DriverKind {
	if o.Driver != DriverAuto {
		return o.Driver
	}
	if o.Parallel {
		return DriverPool
	}
	return DriverSequential
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

// Runner executes a program over a graph. Construct with NewRunner; a
// Runner is single-use (Run may be called once).
type Runner struct {
	g      *graph.Graph // ingest graph, external labeling
	nodes  []Node       // indexed by internal ID
	opts   Options
	ran    bool
	traced bool // full event stream wanted; set before workers start, read-only after

	// Layout state (see internal/layout). Under the identity layout ig
	// aliases g and every other field is nil, so the engine runs exactly
	// the pre-layout code paths. Otherwise ig is the relabeled CSR the
	// drivers shard and sweep, perm/ext translate external↔internal IDs,
	// and the nbr arrays hold each internal vertex's neighbor row twice:
	// external IDs ascending (what contexts expose) pairwise-aligned with
	// internal IDs (what sends address).
	ig *graph.Graph
	//idspace:index external
	//idspace:internal
	perm []int // external ID -> internal ID; nil = identity
	//idspace:index internal
	//idspace:external
	ext    []int // internal ID -> external ID; nil = identity
	nbrOff []int // internal vertex -> offset into nbrExt/nbrInt
	//idspace:external
	nbrExt []int
	//idspace:internal
	nbrInt    []int
	layoutErr error // deferred to Run: NewRunner cannot return an error
}

// NewRunner builds a runner for the given graph. factory(v) must return the
// state machine for vertex v; it is called once per vertex in ascending
// external (original) ID order regardless of Options.Layout.
func NewRunner(g *graph.Graph, factory func(v int) Node, opts Options) *Runner {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	r := &Runner{g: g, ig: g, opts: opts}
	r.resolveLayout()
	r.nodes = make([]Node, g.N())
	for v := 0; v < g.N(); v++ {
		p := v
		if r.perm != nil {
			p = r.perm[v]
		}
		r.nodes[p] = factory(v)
	}
	return r
}

// resolveLayout computes the configured ordering and relabels the graph.
// Failures (unknown ordering name) are recorded in layoutErr and poison
// Run; the runner falls back to identity internals so accessors stay safe.
func (r *Runner) resolveLayout() {
	o, err := layout.Parse(r.opts.Layout)
	if err != nil {
		r.layoutErr = err
		return
	}
	perm, ext, err := layout.Compute(r.g, o)
	if err != nil {
		r.layoutErr = err
		return
	}
	if perm == nil {
		return // identity: ig aliases g, nothing stored
	}
	ig, err := graph.Relabel(r.g, perm)
	if err != nil {
		r.layoutErr = err
		return
	}
	r.ig, r.perm, r.ext = ig, perm, ext
	// Build the dual neighbor rows: for internal vertex p, the external
	// IDs of its neighbors ascending, aligned with their internal IDs.
	n := ig.N()
	r.nbrOff = make([]int, n+1)
	for p := 0; p < n; p++ {
		r.nbrOff[p+1] = r.nbrOff[p] + ig.Degree(p)
	}
	r.nbrExt = make([]int, r.nbrOff[n])
	r.nbrInt = make([]int, r.nbrOff[n])
	for p := 0; p < n; p++ {
		extRow := r.nbrExt[r.nbrOff[p]:r.nbrOff[p+1]]
		intRow := r.nbrInt[r.nbrOff[p]:r.nbrOff[p+1]]
		for i, q := range ig.Neighbors(p) {
			extRow[i] = ext[q]
			intRow[i] = q
		}
		sort.Sort(&pairByExt{ext: extRow, tgt: intRow})
	}
}

// pairByExt sorts a (external ID, internal ID) neighbor-row pair by
// external ID, keeping the slices aligned.
type pairByExt struct{ ext, tgt []int }

func (s *pairByExt) Len() int           { return len(s.ext) }
func (s *pairByExt) Less(i, j int) bool { return s.ext[i] < s.ext[j] }
func (s *pairByExt) Swap(i, j int) {
	s.ext[i], s.ext[j] = s.ext[j], s.ext[i]
	s.tgt[i], s.tgt[j] = s.tgt[j], s.tgt[i]
}

// Node returns vertex v's state machine, for reading outputs after Run.
// v is the external (original) ID under every layout.
func (r *Runner) Node(v int) Node {
	if r.perm != nil {
		return r.nodes[r.perm[v]]
	}
	return r.nodes[v]
}

// Run executes the program to completion and returns run statistics. It
// returns ErrMaxRounds if any node is still live at the round limit, or the
// first model violation (send to non-neighbor, oversized message) detected.
func (r *Runner) Run() (Result, error) {
	if r.ran {
		return Result{}, errors.New("congest: Runner is single-use; construct a new one per run")
	}
	r.ran = true
	if r.layoutErr != nil {
		return Result{}, r.layoutErr
	}
	switch r.opts.driverKind() {
	case DriverPool:
		return r.runPool()
	case DriverGoroutinePerVertex:
		return r.runGoroutinePerVertex()
	case DriverDistributed:
		return r.runDistributed()
	default:
		return r.runSequential()
	}
}

// shard is a contiguous vertex range [lo, hi) owned by one worker. Its
// outboxes accumulate the messages its nodes send during a sweep, in
// (sender ID, send call) order per destination bucket; its frontier is a
// dense grow-only bitset of the not-yet-halted vertices in the range (see
// frontier.go). Only the owning worker touches a shard during a sweep; the
// coordinator reads and re-partitions it between sweeps (rebalance.go).
type shard struct {
	idx int // shard index; doubles as this shard's merge-bucket index
	//idspace:internal
	lo, hi    int      // owned contiguous vertex range [lo, hi)
	frontier  []uint64 // live bitset over [lo, hi); word 0 starts at (lo>>6)<<6
	liveCount int      // set bits in frontier (O(1) empty-shard skip)
	// out is the per-destination-bucket outbox family: out[d] holds the
	// messages this shard's nodes sent to vertices of destination shard d,
	// in send order. Unbucketed runs (sequential driver, fault plans,
	// shard-flow attribution, the legacy driver) use a single bucket and
	// out[0] is the classic global-send-order outbox.
	out    [][]addressed
	vshard []int32       // shared vertex→shard map for bucket routing (nil when unbucketed)
	events []trace.Event // program/halt events buffered during the sweep
	err    error         // first model violation by a node of this shard
	busy   int64         // sweep duration in nanoseconds, when timing is on

	// Bucketed-merge scratch, owned by this shard in its destination role:
	// mergeBase is the arena offset where the shard's inbox region starts,
	// and the merge* counters are the region's delivery tallies, folded
	// into Result by the coordinator in shard order after the merge.
	mergeBase int
	mergeMsgs int64
	mergeBits int64
	mergeMax  int
}

// execState is the driver-independent bookkeeping for a run.
type execState struct {
	ctxs   []Context
	shards []*shard

	// The flat inbox arena: one contiguous backing store for all of the
	// round's inboxes, sized by a counting pass over the shard outboxes
	// and reused across rounds (it only grows, so steady-state rounds
	// allocate nothing). Vertex v's inbox is arena[inboxOff[v] :
	// inboxOff[v]+inboxLen[v]] — inboxes are laid out in ascending vertex
	// order, so the sweep reads the arena sequentially.
	arena    []Message
	inboxOff []int // vertex -> arena offset of its inbox
	inboxLen []int // vertex -> messages delivered this round (write cursor)

	live      int
	res       Result
	plan      faultsim.Plan       // effective fault plan (nil = reliable network)
	faults    *rng.RNG            // coordinator-owned fault stream
	delayed   map[int][]addressed // in-flight messages keyed by consumption round
	delayFree [][]addressed       // drained delay buckets, kept for reuse
	sent      int64               // messages handed to delivery, any fate
	observed  int64               // sends already reported on the bus

	// Bucketed-merge state. buckets is the destination-bucket count per
	// shard outbox: numShards for the pool driver on a reliable network
	// (delivery decomposes into per-destination-shard merges that can run
	// on the workers), 1 otherwise (fault draws and flow attribution need
	// the global send order a single outbox preserves). parMerge, set by
	// the pool driver, dispatches one merge task per shard to the worker
	// pool and waits; nil means the coordinator merges the buckets itself.
	buckets    int
	parMerge   func()
	scratch    []uint64 // whole-graph frontier gather space for rebalancing
	rebalances int64    // rebalance count over the run

	// Outbox reservation (see sizeOutboxes): the one backing array of all
	// 2m directed edges every bucket is carved from, and per-bucket count
	// scratch.
	outbox    []addressed
	outCounts []int

	// Event-bus state (see events.go). bus is nil when nothing listens;
	// full means a real sink (Options.Events) wants the rich stream, not
	// just the deprecated adapters.
	bus            trace.Sink
	full           bool
	flow           map[uint64]int64 // per-round (srcShard,dstShard) sends
	vshard         []int32          // vertex -> shard, for flow attribution
	lastDelivered  int64            // round-delta trackers for EvRoundEnd/EvRNG
	lastDropped    int64
	lastDraws      uint64
	lastFaultDraws uint64

	// Distributed-driver state: when remote is set, node RNG draws happen
	// in the shard worker processes and remoteDraws (the sum of the
	// workers' cumulative draw counts) replaces the coordinator-side
	// context scan in endRound — the coordinator's mirror contexts never
	// draw, so the scan would report zero.
	remote      bool
	remoteDraws uint64

	// Layout translation (mirrors Runner.ext/perm; nil = identity). The
	// engine's storage and sweep order are internal, but fault-plan
	// consults and trace-event vertex fields must speak external IDs.
	//
	//idspace:index internal
	//idspace:external
	ext []int
	//idspace:index external
	//idspace:internal
	perm []int
}

// extID translates an internal vertex ID to its external (original) ID.
// This is the one sanctioned internal→external crossing; misvet's idspace
// analyzer checks every other flow against the declared spaces.
//
//idspace:internal v
//idspace:returns external
//congest:hotpath
func (st *execState) extID(v int) int {
	if st.ext == nil {
		return v //idspace:ok identity layout: internal and external IDs coincide
	}
	return st.ext[v]
}

// effectivePlan resolves the run's fault model: the legacy DropProb knob
// becomes a BernoulliDrop layer consulted before any explicit plan, which
// keeps DropProb-only runs bit-identical to the pre-faultsim engine (one
// Bool draw per message from the same stream, in the same order).
func (o Options) effectivePlan() faultsim.Plan {
	plan := o.Faults
	if o.DropProb > 0 {
		drop := faultsim.BernoulliDrop{P: o.DropProb}
		if plan == nil {
			return drop
		}
		plan = faultsim.Compose(drop, plan)
	}
	return plan
}

// newExecState prepares contexts and shards. Shard boundaries split the
// vertex range into numShards near-equal contiguous pieces.
func (r *Runner) newExecState(numShards int) *execState {
	root := rng.New(r.opts.Seed)
	n := r.ig.N()
	if numShards > n {
		numShards = n
	}
	if numShards < 1 {
		numShards = 1
	}
	st := &execState{
		ctxs:     make([]Context, n),
		inboxOff: make([]int, n),
		inboxLen: make([]int, n),
		shards:   make([]*shard, numShards),
		live:     n,
		plan:     r.opts.effectivePlan(),
	}
	st.ext, st.perm = r.ext, r.perm
	if st.plan != nil {
		st.faults = root.Split(^uint64(0))
	}
	st.bus, st.full = r.opts.eventBus()
	r.traced = st.full
	flowWanted := st.full && r.opts.EventShardFlow
	// Destination-bucketed outboxes let delivery decompose into disjoint
	// per-shard merges (deliverBuckets); they require a reliable network
	// (fault draws consume the fault stream in global send order, which
	// only a single outbox preserves) and no flow attribution, and they
	// only pay off under the pool driver.
	st.buckets = 1
	if r.opts.driverKind() == DriverPool && numShards > 1 && st.plan == nil && !flowWanted {
		st.buckets = numShards
	}
	if flowWanted || st.buckets > 1 {
		st.vshard = make([]int32, n)
	}
	if flowWanted {
		st.flow = make(map[uint64]int64)
	}
	for s := range st.shards {
		lo, hi := s*n/numShards, (s+1)*n/numShards
		sh := &shard{idx: s, out: make([][]addressed, st.buckets)}
		sh.resetFrontier(lo, hi)
		if st.buckets > 1 {
			sh.vshard = st.vshard
		}
		for v := lo; v < hi; v++ {
			if st.vshard != nil {
				st.vshard[v] = int32(s)
			}
			// v is the internal ID; the context carries the external
			// identity (ID, neighbor list, RNG stream) so relabeling is
			// invisible to the program. Identity layout: both neighbor
			// slices alias the same CSR row and extv == v.
			extv, nbrs, tgts := v, r.ig.Neighbors(v), []int(nil)
			if r.perm != nil {
				extv = r.ext[v]
				nbrs = r.nbrExt[r.nbrOff[v]:r.nbrOff[v+1]]
				tgts = r.nbrInt[r.nbrOff[v]:r.nbrOff[v+1]]
			} else {
				tgts = nbrs
			}
			st.ctxs[v] = Context{
				id:        extv,
				n:         n,
				neighbors: nbrs,
				targets:   tgts,
				rng:       *root.Split(uint64(extv)),
				shard:     sh,
				runner:    r,
			}
		}
		st.shards[s] = sh
	}
	st.outbox = make([]addressed, 2*r.ig.M())
	st.outCounts = make([]int, st.buckets)
	st.sizeOutboxes()
	return st
}

// sizeOutboxes carves every shard outbox bucket from the run's single
// backing array at the CONGEST bound of one message per edge per direction
// per round: bucket d of a shard never carries more in a round than the
// directed edges from the shard's vertices into destination bucket d — the
// shard's whole degree sum when the run has a single bucket. Set-up calls
// it once; the rebalancer calls it again after re-cutting the shard ranges
// (outboxes are empty between rounds), so the reservation always matches
// the current partition. The counts of any partition sum to the same 2m
// directed edges, so re-carving never allocates. Every bucket is capped
// with a three-index slice: a program that sends more than once per edge
// in a round grows its own bucket by an ordinary append and never writes
// into a neighbor's range.
func (st *execState) sizeOutboxes() {
	counts := st.outCounts
	off := 0
	for _, sh := range st.shards {
		if len(counts) == 1 {
			counts[0] = roundBound(st.ctxs[sh.lo:sh.hi])
		} else {
			clear(counts)
			for v := sh.lo; v < sh.hi; v++ {
				for _, q := range st.ctxs[v].targets {
					counts[st.vshard[q]]++
				}
			}
		}
		for d, c := range counts {
			sh.out[d] = st.outbox[off : off : off+c]
			off += c
		}
	}
}

// roundBound is the most messages a run of contexts can send, or receive,
// in one round under CONGEST's one message per edge per direction: their
// degree sum.
func roundBound(ctxs []Context) int {
	sum := 0
	for i := range ctxs {
		sum += len(ctxs[i].targets)
	}
	return sum
}

// sweepShard runs one round for every live node of a shard, in ascending
// ID order by iterating the frontier bitset word by word (set bits resolve
// low-to-high via TrailingZeros64, so bit order is ID order). A halted
// node's bit is cleared; a VertexGone fate also retires the bit so a run
// with permanent crashes can still terminate, while VertexDown leaves the
// bit set (the vertex is skipped this round only). Vertex fates are pure
// functions of (round, vertex), so concurrent shard workers agree with
// the sequential sweep.
//
//congest:hotpath
func (r *Runner) sweepShard(st *execState, sh *shard, round int) {
	base := sh.lo >> 6
	for wi := range sh.frontier {
		w := sh.frontier[wi]
		if w == 0 {
			continue
		}
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			v := vbase + b
			if round > 0 && st.plan != nil {
				switch st.plan.Vertex(round, st.extID(v)) {
				case faultsim.VertexGone:
					sh.frontier[wi] &^= 1 << uint(b)
					sh.liveCount--
					continue
				case faultsim.VertexDown:
					continue
				}
			}
			ctx := &st.ctxs[v]
			ctx.round = round
			if round == 0 {
				r.nodes[v].Init(ctx)
			} else {
				r.nodes[v].Round(ctx, st.inbox(v))
			}
			if ctx.halted {
				sh.frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
				if r.traced {
					sh.events = append(sh.events, trace.Event{
						Type: trace.EvHalt, Round: int32(round), V: int32(st.extID(v)),
					})
				}
			}
		}
	}
}

// inbox returns vertex v's slice of the round's arena. The three-index
// form caps the slice at its own segment, so a program that (incorrectly)
// appends to its inbox forces a copy instead of corrupting a neighbor's
// inbox.
//
//congest:hotpath
func (st *execState) inbox(v int) []Message {
	off := st.inboxOff[v]
	end := off + st.inboxLen[v]
	return st.arena[off:end:end]
}

// deliver merges every shard's outbox into the next round's inboxes,
// applying the fault plan and accounting. round is the round that was just
// swept (the send round); its messages are consumed in round+1. It returns
// the first model violation recorded by any shard (shards cover ascending
// contiguous ID ranges and sweep in ID order, so the reported error is the
// lowest erring vertex's under every driver).
//
// Delivery is a two-pass scatter into the flat inbox arena. The counting
// pass upper-bounds each vertex's inbox (delayed messages due this round
// plus every outbox message addressed to it — drops only shorten a
// segment, never misplace one) and lays the inboxes out back-to-back via
// a prefix sum. The delivery pass then writes each admitted message at
// its recipient's cursor. Shards cover contiguous ascending ID ranges and
// each shard outbox is already in ascending sender order, so visiting
// shard outboxes in shard order delivers every inbox sorted by sender —
// no per-vertex append, no intermediate buffer, no sort, and the arena is
// reused across rounds so steady-state delivery allocates nothing. Fault
// decisions happen in that same global sender order (the counting pass
// consults no randomness), so fault stream consumption is identical
// across drivers. Messages a plan has delayed land ahead of the round's
// fresh traffic, in the order they were deferred (which is itself global
// send order, so the whole inbox is deterministic).
//
//congest:hotpath
func (r *Runner) deliver(st *execState, round int) error {
	for _, sh := range st.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	st.drainShardEvents()
	if st.buckets > 1 {
		return st.deliverBuckets()
	}
	consume := round + 1
	var delayedNow []addressed
	if st.delayed != nil {
		delayedNow = st.delayed[consume]
	}

	// Counting pass: inboxLen doubles as the per-vertex counter, then the
	// prefix sum converts counts into offsets and resets the cursors.
	for v := range st.inboxLen {
		st.inboxLen[v] = 0
	}
	for _, a := range delayedNow {
		st.inboxLen[a.to]++
	}
	for _, sh := range st.shards {
		for _, a := range sh.out[0] {
			st.inboxLen[a.to]++
		}
	}
	total := 0
	for v, c := range st.inboxLen {
		st.inboxOff[v] = total
		st.inboxLen[v] = 0
		total += c
	}
	if cap(st.arena) < total {
		//congest:coldpath arena growth: the backing store only grows, so steady-state rounds never take this branch
		st.arena = make([]Message, total)
	} else {
		st.arena = st.arena[:total]
	}

	// Delivery pass: delayed messages first, then fresh traffic in shard
	// (= global sender) order.
	for _, a := range delayedNow {
		st.admit(a, consume)
	}
	if delayedNow != nil {
		st.delayFree = append(st.delayFree, delayedNow[:0])
		delete(st.delayed, consume)
	}
	for s, sh := range st.shards {
		if st.plan == nil && st.flow == nil {
			// Reliable fast path: no fates to draw, no flow to attribute.
			st.sent += int64(len(sh.out[0]))
			for _, a := range sh.out[0] {
				st.deposit(a)
			}
			sh.out[0] = sh.out[0][:0]
			continue
		}
		for _, a := range sh.out[0] {
			st.sent++
			if st.flow != nil {
				st.noteFlow(int32(s), a.to)
			}
			if st.plan != nil {
				fate := st.plan.Message(round, a.msg.From, st.extID(a.to), st.faults)
				if fate.Drop {
					st.res.Dropped++
					if st.full {
						st.bus.Emit(trace.Event{
							Type: trace.EvDrop, Round: int32(round),
							V: int32(a.msg.From), W: int32(st.extID(a.to)),
						})
					}
					continue
				}
				if fate.Delay > 0 {
					if st.delayed == nil {
						//congest:coldpath first delay fault of the run allocates the bucket map once
						st.delayed = make(map[int][]addressed)
					}
					at := consume + fate.Delay
					st.delayed[at] = st.appendDelayed(st.delayed[at], a)
					st.res.Delayed++
					if st.full {
						st.bus.Emit(trace.Event{
							Type: trace.EvDelay, Round: int32(round),
							V: int32(a.msg.From), W: int32(st.extID(a.to)), X: int64(fate.Delay),
						})
					}
					continue
				}
			}
			st.admit(a, consume)
		}
		sh.out[0] = sh.out[0][:0]
	}
	if st.flow != nil {
		st.emitFlow(round)
	}
	return nil
}

// parallelMergeMin is the outbox volume (messages in the round) below which
// deliverBuckets merges on the coordinator rather than dispatching merge
// tasks to the worker pool: under it, the channel round-trip costs more
// than the scatter it would parallelize.
const parallelMergeMin = 1 << 13

// deliverBuckets is delivery for bucketed runs (pool driver, reliable
// network, no flow attribution): every shard swept its nodes into
// per-destination-shard sub-outboxes, so shard d's whole inbox region is
// exactly {out[d] of every source shard} — a merge over disjoint arena
// ranges that can run per destination shard, in parallel, with no
// coordination beyond the range layout.
//
// Order is preserved exactly as in the single-outbox merge: recipient v's
// inbox concatenates source shards in ascending shard order (shards cover
// ascending contiguous ID ranges), and within a source bucket messages are
// in (sender ID, send call) order because the sweep visits nodes in ID
// order. That is the same sender-sorted inbox deliver produces, so bucketed
// and unbucketed runs are bit-identical.
//
//congest:hotpath
func (st *execState) deliverBuckets() error {
	// Region layout: shard d's inbox region starts where shard d-1's ends,
	// sized by the bucket lengths (a count pass over W² slice headers, not
	// messages).
	total := 0
	for _, dst := range st.shards {
		dst.mergeBase = total
		for _, src := range st.shards {
			total += len(src.out[dst.idx])
		}
	}
	if cap(st.arena) < total {
		//congest:coldpath arena growth: the backing store only grows, so steady-state rounds never take this branch
		st.arena = make([]Message, total)
	} else {
		st.arena = st.arena[:total]
	}
	if st.parMerge != nil && total >= parallelMergeMin {
		st.parMerge()
	} else {
		for d := range st.shards {
			st.mergeBucket(d)
		}
	}
	// Fold the per-region tallies into the run counters in shard order and
	// reset the buckets for the next sweep.
	for _, dst := range st.shards {
		st.sent += dst.mergeMsgs
		st.res.Messages += dst.mergeMsgs
		st.res.TotalBits += dst.mergeBits
		if dst.mergeMax > st.res.MaxMessageBits {
			st.res.MaxMessageBits = dst.mergeMax
		}
	}
	for _, src := range st.shards {
		for d := range src.out {
			src.out[d] = src.out[d][:0]
		}
	}
	return nil
}

// mergeBucket scatters destination shard d's inbox region: counting pass
// over every source shard's bucket for d, prefix sum from the region base,
// then the cursor scatter — the same two-pass layout as deliver, restricted
// to the region. Regions are disjoint in the arena and in inboxOff/inboxLen
// (shard vertex ranges partition [0, n)), so mergeBucket calls for distinct
// d are race-free and run on pool workers when volume warrants.
//
//congest:hotpath
func (st *execState) mergeBucket(d int) {
	dst := st.shards[d]
	for v := dst.lo; v < dst.hi; v++ {
		st.inboxLen[v] = 0
	}
	for _, src := range st.shards {
		for _, a := range src.out[d] {
			st.inboxLen[a.to]++
		}
	}
	off := dst.mergeBase
	for v := dst.lo; v < dst.hi; v++ {
		st.inboxOff[v] = off
		off += st.inboxLen[v]
		st.inboxLen[v] = 0
	}
	var msgs, totalBits int64
	maxBits := 0
	for _, src := range st.shards {
		for _, a := range src.out[d] {
			v := a.to
			st.arena[st.inboxOff[v]+st.inboxLen[v]] = a.msg
			st.inboxLen[v]++
			msgs++
			bits := int(a.msg.Wire.Bits)
			totalBits += int64(bits)
			if bits > maxBits {
				maxBits = bits
			}
		}
	}
	dst.mergeMsgs = msgs
	dst.mergeBits = totalBits
	dst.mergeMax = maxBits
}

// appendDelayed appends to a delay bucket, seeding empty buckets from the
// free list of previously drained ones so steady-state delay traffic
// reuses buffers instead of allocating.
//
//congest:hotpath
func (st *execState) appendDelayed(bucket []addressed, a addressed) []addressed {
	if bucket == nil && len(st.delayFree) > 0 {
		bucket = st.delayFree[len(st.delayFree)-1]
		st.delayFree = st.delayFree[:len(st.delayFree)-1]
	}
	return append(bucket, a)
}

// admit finalizes delivery of one message into its recipient's inbox for
// the given consumption round, unless the recipient is crashed then — a
// dead vertex is not listening, so the message is lost.
//
//congest:hotpath
func (st *execState) admit(a addressed, consume int) {
	if st.plan != nil && st.plan.Vertex(consume, st.extID(a.to)) != faultsim.VertexUp {
		st.res.Dropped++
		if st.full {
			// consume-1 is the round being delivered: event rounds stay
			// nondecreasing within the stream, which Bisect relies on.
			st.bus.Emit(trace.Event{
				Type: trace.EvDrop, Round: int32(consume - 1),
				V: int32(a.msg.From), W: int32(st.extID(a.to)), X: 1,
			})
		}
		return
	}
	st.deposit(a)
}

// deposit writes one delivered message at its recipient's arena cursor
// and folds it into the run counters.
//
//congest:hotpath
func (st *execState) deposit(a addressed) {
	v := a.to
	st.arena[st.inboxOff[v]+st.inboxLen[v]] = a.msg
	st.inboxLen[v]++
	st.res.Messages++
	bits := int(a.msg.Wire.Bits)
	st.res.TotalBits += int64(bits)
	if bits > st.res.MaxMessageBits {
		st.res.MaxMessageBits = bits
	}
}

// refreshLive recomputes the live-node count from the shard frontiers.
func (st *execState) refreshLive() {
	live := 0
	for _, sh := range st.shards {
		live += sh.liveCount
	}
	st.live = live
}

// runLoop is the coordinator shared by every driver: sweep round 0 (Init),
// then rounds 1, 2, ... until every node has halted. sweep(round) must run
// every live node once; afterRound, when non-nil, runs after each
// successfully delivered round, before the round-end event (the pool
// driver publishes its timing events there). Round reporting — the
// deprecated Observer/PoolObserver callbacks included — rides the event
// bus: startRound/endRound bracket each round on it.
//
// Result.Rounds is committed only after a round's delivery succeeds, so a
// run aborted by a mid-round model violation reports the last *completed*
// round, not the one that failed.
func (r *Runner) runLoop(st *execState, sweep func(round int), afterRound func(round int)) (Result, error) {
	r.startRound(st, 0)
	sweep(0)
	if err := r.deliver(st, 0); err != nil {
		return st.res, err
	}
	st.refreshLive()
	if afterRound != nil {
		afterRound(0)
	}
	r.endRound(st, 0)
	for round := 1; st.live > 0; round++ {
		if round > r.opts.MaxRounds {
			return st.res, fmt.Errorf("%w (limit %d, %d nodes live)", ErrMaxRounds, r.opts.MaxRounds, st.live)
		}
		r.startRound(st, round)
		sweep(round)
		if err := r.deliver(st, round); err != nil {
			return st.res, err
		}
		st.res.Rounds = round
		st.refreshLive()
		if afterRound != nil {
			afterRound(round)
		}
		r.endRound(st, round)
	}
	return st.res, nil
}

func (r *Runner) runSequential() (Result, error) {
	st := r.newExecState(1)
	return r.runLoop(st, func(round int) {
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
	}, nil)
}
