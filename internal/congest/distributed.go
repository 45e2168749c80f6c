package congest

// This file is the engine side of the distributed multi-process driver
// (DriverDistributed): every shard's nodes live in a separate OS process
// (a shard worker), and the coordinator exchanges round-batched frames
// with the fleet over sockets (internal/distrib provides the transports
// and the binary codec; this file is transport-agnostic).
//
// Determinism contract. The distributed driver reuses the in-process
// coordinator verbatim — runLoop, deliver's fate walk, the event bus — so
// everything that consumes randomness or emits deterministic events stays
// on the coordinator, in global sender order:
//
//   - fault fates and fault-stream draws happen on the coordinator,
//     exactly as for the sequential driver: the round's vertex fates in
//     step, before the sweep, and message fates in deliver (workers never
//     see the plan or the fault RNG; they receive the already-drawn vertex
//     fates and the list of deliveries the plan withheld);
//   - shards are contiguous ascending ID ranges and each worker sweeps its
//     nodes in ID order, so concatenating worker outboxes in shard order
//     reproduces the global send order every in-process driver uses; a
//     Broadcast crosses the socket as one record, the coordinator's fate
//     walk (deliverRecords, the one every in-process record round runs)
//     expands it over the sender's CSR row, so fault draws keep their
//     (sender, call, neighbor) order, and the next round ships the records
//     themselves: each worker is one shard of the in-process engine, which
//     indexes them for its own vertices and runs the sweep every driver
//     runs (shard.sweep), building every inbox by the record pull;
//   - node RNG streams are Split(v) of the run seed on the worker — the
//     same pure function of (seed, v) the in-process drivers use, so
//     stream contents do not depend on which process draws them.
//
// Crash recovery. The coordinator keeps a per-shard log of every round
// input it sent plus a digest of every round output it received. When a
// shard's connection breaks (worker crash, SIGKILL, socket error), the
// coordinator asks the Fleet for a fresh worker and replays the log:
// because the worker is a pure function of (config, input sequence), the
// replayed outputs must digest-match the originals — a mismatch is
// reported as a hard nondeterminism error, never papered over — and after
// the fast-forward the run continues from the round that failed. The
// final fingerprint of a recovered run is bit-identical to an undisturbed
// one by construction.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ShardConfig tells a worker process which slice of the run it owns. It
// carries engine parameters only; the program (algorithm name, arguments)
// and the adjacency of [Lo, Hi) travel with the Fleet implementation,
// which owns the graph and the program spec.
type ShardConfig struct {
	// Index is this shard's position in the fleet.
	Index int
	// Lo, Hi delimit the owned contiguous vertex range [Lo, Hi).
	Lo, Hi int
	// N is the whole graph's vertex count.
	N int
	// Seed is the run's root seed; the worker splits node streams from it
	// exactly as the in-process drivers do.
	Seed uint64
	// Traced mirrors whether the run has an event sink attached; workers
	// buffer Context.Emit and halt events only when set.
	Traced bool
}

// VertexFate is one non-Up fault verdict for a live vertex this round,
// drawn (purely) on the coordinator by scanFates, read by the sweep and
// shipped to the owning worker.
// Fate uses the faultsim.VertexFate values 1 (down) and 2 (gone); the
// round-frame decoder and ShardWorker.check reject any other.
type VertexFate struct {
	V    int32
	Fate int32
}

// Withheld is one delivery the fault plan dropped or delayed: record Rec
// of RoundInput.Records does not reach recipient To this round.
type Withheld struct {
	To, Rec int32
}

// RoundInput is one round's coordinator → worker payload. The worker
// builds every inbox from it by pull (see ShardWorker.Sweep):
//
//   - Records are the previous round's send records, every shard's, in
//     global sender order (ascending sender, send-call order per sender),
//     one per send call as the workers shipped them — a Broadcast is one
//     BroadcastTo record. Every shard's input shares one slice.
//   - Fates are the non-Up verdicts for the shard's live vertices,
//     strictly ascending by vertex, so the sweep reads them with a cursor.
//   - Withheld are the deliveries the fault plan dropped or delayed, for
//     recipients in [Lo, Hi), sorted by recipient and then by record.
//   - Late are the delayed messages due this round, for recipients in
//     [Lo, Hi) (To is the recipient), sorted by recipient and kept in
//     deferral order per recipient.
//
// The coordinator builds every input in fresh slices of exact size and
// keeps them, as sent, in its recovery log — Records once, however many
// inputs share it — so a ShardConn may encode them at any time but must
// not modify them.
type RoundInput struct {
	Round    int
	Records  []Packet
	Fates    []VertexFate
	Withheld []Withheld
	Late     []Packet
}

// Packet is one send call, the engine's outbox record: every shard outbox,
// in process or in a worker, holds them in (sender ID, send call) order,
// and a round's records are the outboxes concatenated in shard order. A
// Broadcast is one Packet whose To is BroadcastTo; the fate walk and the
// record pull expand it over the sender's CSR row. The type also carries
// a delayed message (RoundInput.Late and the delay buckets), To being its
// recipient.
type Packet struct {
	To, From int32 // recipient (or BroadcastTo) and sender vertex IDs
	Wire     Wire
}

// RoundOutput is one round's worker → coordinator payload.
type RoundOutput struct {
	// Packets are the shard's send calls this round in global send order
	// for the shard (ascending sender ID, send-call order per sender): one
	// per Send or SendSlot, and one BroadcastTo record per Broadcast. The
	// slice is the worker's outbox itself, so it is valid until the next
	// Sweep.
	Packets []Packet
	// Events are the trace events the sweep buffered (Context.Emit node
	// states and halt events, interleaved per vertex exactly as the
	// in-process sweep produces them). Empty when the run is untraced.
	Events []trace.Event
	// Halted lists the vertices that halted this round, ascending. It is
	// always shipped (even untraced) because the coordinator's live count
	// — and so run termination — depends on it.
	Halted []int32
	// Draws is the worker's cumulative node-RNG draw count over all its
	// vertices, for the coordinator's EvRNG accounting.
	Draws uint64
	// Err is the first model violation a node of this shard committed
	// (send to a non-neighbor, message above MaxWireBits) or its first
	// panic, as an error string; it aborts the run on the coordinator
	// exactly as sh.err does in-process. The violating send never reaches
	// Packets, so no frame carries it.
	Err string

	// Advisory transport measurements, filled by the connection (not the
	// worker): frame bytes written to the shard for this round, frame
	// bytes read back, and the exchange's round-trip latency. They feed
	// the EvFrame event and are excluded from the replay digest.
	BytesOut, BytesIn, LatencyNanos int64
}

// ShardConn is the coordinator's connection to one shard worker. Send and
// Recv are split so the coordinator can send round inputs to every shard
// before collecting any output — all workers sweep concurrently while the
// coordinator's round stays sequential and deterministic.
type ShardConn interface {
	// Send ships one round's input to the worker. The input's slices are
	// shared with other shards' inputs and with the recovery log; Send
	// must not modify them.
	Send(in RoundInput) error
	// Recv collects the worker's output for the round last sent.
	Recv() (RoundOutput, error)
	// Outputs ends the run and returns the worker's per-vertex exported
	// state (Porter.ExportState) for [Lo, Hi), in vertex order.
	Outputs() ([]uint64, error)
	// Close releases the connection.
	Close() error
}

// Fleet provides shard workers to the distributed coordinator. Shard is
// called once per shard at run start, and again whenever a shard's
// connection breaks (crash recovery respawns through it).
type Fleet interface {
	// NumShards is the fleet's worker count; the coordinator clamps it to
	// the vertex count.
	NumShards() int
	// Shard starts (or restarts) the worker for cfg.Index and returns its
	// connection.
	Shard(cfg ShardConfig) (ShardConn, error)
}

// Porter is a node's output contract: one 64-bit word, the node's whole
// output once the run ends. Every driver reads it through Runner.Export,
// and a distributed run requires it, since the word is all that crosses
// back from a worker. Every MIS node type in this repository exports its
// status (base.Statuses reads it back).
type Porter interface {
	// ExportState packs the node's output.
	ExportState() uint64
}

// replay-divergence sentinel: a respawned worker's replayed output did not
// digest-match the original. This is a determinism violation, not a
// transient fault, so recovery does not retry past it.
var errReplayDiverged = errors.New("replayed round output diverged from the original (nondeterministic worker)")

// respawnAttempts bounds how many fresh workers recovery will try for one
// shard in one round before declaring the shard lost.
const respawnAttempts = 3

// shardLog is one shard's recovery state: every round input sent so far,
// as sent, and a digest of every round output received.
type shardLog struct {
	inputs  []RoundInput
	digests []uint64
}

// distRun is the distributed coordinator's per-run state around the
// shared execState.
type distRun struct {
	r     *Runner
	st    *execState
	fleet Fleet
	cfgs  []ShardConfig
	conns []ShardConn
	logs  []shardLog
	ins   []RoundInput
	outs  []RoundOutput
	errs  []error
	adv   []trace.Event // advisory frame/respawn events, emitted in afterRound
}

// runDistributed executes the program over Options.Fleet. It reuses the
// in-process round loop and delivery path: the only driver-specific part
// is the sweep, which ships inputs to the worker processes and merges
// their outputs back into the shard outboxes.
func (r *Runner) runDistributed() (Result, error) {
	fleet := r.opts.Fleet
	if fleet == nil {
		return Result{}, errors.New("congest: DriverDistributed requires Options.Fleet")
	}
	st := r.newExecState(fleet.NumShards())
	d := &distRun{r: r, st: st, fleet: fleet}
	if err := d.start(); err != nil {
		return st.res, err
	}
	// Connections are NOT closed here: the Fleet owns them, so a fleet can
	// serve several runs back-to-back (Fleet.Shard re-configures a live
	// worker) and Fleet close tears them down.
	res, err := r.runLoop(st, d.sweep, d.afterRound)
	if outErr := d.collectOutputs(err != nil); err == nil && outErr != nil {
		return res, outErr
	}
	return res, err
}

// start dials the fleet: one connection per non-empty shard.
func (d *distRun) start() error {
	nShards := len(d.st.shards)
	d.cfgs = make([]ShardConfig, nShards)
	d.conns = make([]ShardConn, nShards)
	d.logs = make([]shardLog, nShards)
	d.ins = make([]RoundInput, nShards)
	d.outs = make([]RoundOutput, nShards)
	d.errs = make([]error, nShards)
	for s, sh := range d.st.shards {
		if sh.hi <= sh.lo {
			continue
		}
		d.cfgs[s] = ShardConfig{
			Index:  s,
			Lo:     sh.lo,
			Hi:     sh.hi,
			N:      d.r.g.N(),
			Seed:   d.r.opts.Seed,
			Traced: d.st.bus != nil,
		}
		conn, err := d.fleet.Shard(d.cfgs[s])
		if err != nil {
			return fmt.Errorf("congest: distributed shard %d failed to start: %w", s, err)
		}
		d.conns[s] = conn
	}
	return nil
}

// sweep is the distributed driver's round body: build every shard's
// input, ship all inputs, collect all outputs (recovering any shard whose
// connection broke), and merge the outputs into the round's send records,
// which the shared deliver pass walks. Every input shares the previous
// round's records; the withheld pairs and late messages the last delivery
// collected are copied once into fresh exact-size slices, which split
// sorts and cuts by shard as it does for the in-process record pull, and
// each shard's vertex fates, which step drew into the mirror shard's
// reused list, into a fresh copy, so the recovery log keeps each input as
// sent.
func (d *distRun) sweep(round int) {
	st := d.st
	st.split(slices.Clone(st.withheld), slices.Clone(st.late), nil)
	for s, sh := range st.shards {
		if d.conns[s] == nil {
			continue
		}
		d.ins[s] = RoundInput{Round: round, Records: st.records, Fates: slices.Clone(sh.fates), Withheld: sh.held, Late: sh.late}
	}
	d.exchange(round)
	d.apply(round)
}

// exchange ships the round to the fleet: send phase in shard order, recv
// phase in shard order (workers sweep concurrently in between), then a
// recovery pass for any shard whose connection failed. A shard that
// cannot be recovered gets its mirror error set, which aborts the run in
// deliver with the lowest-shard error — the same precedence the
// in-process drivers give model violations.
func (d *distRun) exchange(round int) {
	st := d.st
	for s := range st.shards {
		if d.conns[s] == nil {
			continue
		}
		d.errs[s] = nil
		if err := d.conns[s].Send(d.ins[s]); err != nil {
			d.errs[s] = err
		}
	}
	for s := range st.shards {
		if d.conns[s] == nil || d.errs[s] != nil {
			continue
		}
		out, err := d.conns[s].Recv()
		if err != nil {
			d.errs[s] = err
		} else {
			d.outs[s] = out
		}
	}
	for s := range st.shards {
		if d.conns[s] == nil || d.errs[s] == nil {
			continue
		}
		out, err := d.recoverShard(s, round)
		if err != nil {
			if st.shards[s].err == nil {
				st.shards[s].err = fmt.Errorf("congest: distributed shard %d lost at round %d: %w", s, round, err)
			}
			continue
		}
		d.errs[s] = nil
		d.outs[s] = out
	}
}

// recoverShard respawns a shard through the fleet and fast-forwards it by
// replaying the logged round inputs, verifying every replayed output
// against its recorded digest, then redoes the current round.
func (d *distRun) recoverShard(s, round int) (RoundOutput, error) {
	lastErr := d.errs[s]
	for attempt := 0; attempt < respawnAttempts; attempt++ {
		d.conns[s].Close()
		conn, err := d.fleet.Shard(d.cfgs[s])
		if err != nil {
			lastErr = err
			continue
		}
		d.conns[s] = conn
		out, err := d.replayAndRedo(s)
		if err == nil {
			if d.st.bus != nil {
				d.adv = append(d.adv, trace.Event{
					Type: trace.EvRespawn, Round: int32(round),
					V: int32(s), X: int64(len(d.logs[s].inputs)),
				})
			}
			return out, nil
		}
		lastErr = err
		if errors.Is(err, errReplayDiverged) {
			break // determinism violation: a fresh worker will not fix it
		}
	}
	return RoundOutput{}, lastErr
}

// replayAndRedo feeds a fresh worker the shard's whole input log, checks
// each replayed output's digest against the recorded one, and then
// replays the current (unlogged) round for real.
func (d *distRun) replayAndRedo(s int) (RoundOutput, error) {
	log := &d.logs[s]
	for i, in := range log.inputs {
		if err := d.conns[s].Send(in); err != nil {
			return RoundOutput{}, fmt.Errorf("replay send round %d: %w", in.Round, err)
		}
		out, err := d.conns[s].Recv()
		if err != nil {
			return RoundOutput{}, fmt.Errorf("replay recv round %d: %w", in.Round, err)
		}
		if got := outputDigest(out); got != log.digests[i] {
			return RoundOutput{}, fmt.Errorf("round %d digest %#x != recorded %#x: %w",
				in.Round, got, log.digests[i], errReplayDiverged)
		}
	}
	if err := d.conns[s].Send(d.ins[s]); err != nil {
		return RoundOutput{}, err
	}
	return d.conns[s].Recv()
}

// apply merges the round's worker outputs into the coordinator's mirror
// state in shard order: send records (validated, and copied into one
// fresh exact-size slice in global sender order — the next round's
// RoundInput.Records), buffered trace events, halt retirements on the
// mirror frontier, draw totals, and any worker-reported model violation.
func (d *distRun) apply(round int) {
	st := d.st
	total := 0
	for s := range st.shards {
		if d.conns[s] != nil && d.errs[s] == nil {
			total += len(d.outs[s].Packets)
		}
	}
	var recs []Packet
	if total > 0 {
		recs = make([]Packet, 0, total)
	}
	var draws uint64
	for s, sh := range st.shards {
		if d.conns[s] == nil || d.errs[s] != nil {
			continue
		}
		out := d.outs[s]
		// Log before interpreting: recovery needs the input/digest pair
		// even for a round that ends the run.
		d.logs[s].inputs = append(d.logs[s].inputs, d.ins[s])
		d.logs[s].digests = append(d.logs[s].digests, outputDigest(out))
		draws += out.Draws
		if out.Err != "" && sh.err == nil {
			sh.err = errors.New(out.Err)
		}
		if sh.err == nil {
			recs, sh.err = d.appendRecords(recs, s, sh, out.Packets)
		}
		sh.events = append(sh.events, out.Events...)
		for _, v32 := range out.Halted {
			v := int(v32)
			if v < sh.lo || v >= sh.hi {
				if sh.err == nil {
					sh.err = fmt.Errorf("congest: distributed shard %d reported halt of foreign vertex %d", s, v)
				}
				continue
			}
			wi := v>>6 - sh.lo>>6
			bit := uint64(1) << uint(v&63)
			if sh.frontier[wi]&bit != 0 {
				sh.frontier[wi] &^= bit
				sh.liveCount--
			}
		}
		if st.bus != nil && d.r.opts.EventTiming {
			//lint:advisory frame bytes and round-trip latency are advisory transport measurements, never program logic
			d.adv = append(d.adv, trace.Event{
				Type: trace.EvFrame, Round: int32(round), V: int32(s),
				X: out.BytesOut, Y: out.BytesIn, Z: out.LatencyNanos,
			})
		}
	}
	st.records = recs
	st.remoteDraws = draws
}

// appendRecords validates shard s's packets and appends them to the
// round's records. The fault draws and every worker's pull follow the
// records' (sender, call) order, so a packet must come from the shard's
// range, in non-decreasing sender order, address the broadcast marker or
// a neighbor of its sender, and carry at most MaxWireBits; the first
// packet that does not is reported with the shard's index.
func (d *distRun) appendRecords(recs []Packet, s int, sh *shard, pkts []Packet) ([]Packet, error) {
	prev := sh.lo
	for _, p := range pkts {
		from, to := int(p.From), int(p.To)
		switch {
		case from < sh.lo || from >= sh.hi:
			return recs, fmt.Errorf("congest: distributed shard %d returned packet from sender %d outside its range [%d, %d)", s, from, sh.lo, sh.hi)
		case from < prev:
			return recs, fmt.Errorf("congest: distributed shard %d returned packets out of sender order: sender %d after %d", s, from, prev)
		case to != BroadcastTo && !d.st.g.HasEdge(from, to):
			return recs, fmt.Errorf("congest: distributed shard %d returned packet with invalid addressing %d→%d", s, from, to)
		case p.Wire.Bits > MaxWireBits:
			return recs, fmt.Errorf("congest: distributed shard %d returned a %d-bit message from %d, above the %d-bit CONGEST budget", s, p.Wire.Bits, from, MaxWireBits)
		}
		prev = from
		recs = append(recs, p)
	}
	return recs, nil
}

// afterRound publishes the round's buffered advisory events (frame
// transport measurements, respawns) after delivery, mirroring where the
// pool driver publishes its timing events.
func (d *distRun) afterRound(int) {
	if d.st.bus == nil {
		d.adv = d.adv[:0]
		return
	}
	for _, e := range d.adv {
		d.st.bus.Emit(e)
	}
	d.adv = d.adv[:0]
}

// collectOutputs ends the run on every worker and copies each vertex's
// exported word into the Runner's outputs, which Export reads. When the
// run already failed, transport errors here are ignored (a lost shard
// cannot export).
func (d *distRun) collectOutputs(runFailed bool) error {
	for s, sh := range d.st.shards {
		conn := d.conns[s]
		if conn == nil {
			continue
		}
		vals, err := conn.Outputs()
		if err != nil {
			if runFailed {
				continue
			}
			return fmt.Errorf("congest: distributed shard %d outputs: %w", s, err)
		}
		if len(vals) != sh.hi-sh.lo {
			if runFailed {
				continue
			}
			return fmt.Errorf("congest: distributed shard %d exported %d states for %d vertices", s, len(vals), sh.hi-sh.lo)
		}
		copy(d.r.outputs[sh.lo:], vals)
	}
	return nil
}

// outputDigest summarizes the deterministic content of a round output for
// replay verification. The advisory transport fields are excluded: they
// legitimately differ between the original exchange and a replay.
func outputDigest(out RoundOutput) uint64 {
	h := trace.Fold(trace.FoldSeed, uint64(len(out.Packets)))
	for _, p := range out.Packets {
		h = trace.Fold(h, uint64(uint32(p.To))<<32|uint64(uint32(p.From)))
		h = trace.Fold(h, uint64(p.Wire.Kind)<<16|uint64(p.Wire.Bits))
		h = trace.Fold(h, p.Wire.A)
		h = trace.Fold(h, p.Wire.B)
	}
	h = trace.Fold(h, uint64(len(out.Events)))
	for _, e := range out.Events {
		h = trace.FoldEvent(h, e)
	}
	h = trace.Fold(h, uint64(len(out.Halted)))
	for _, v := range out.Halted {
		h = trace.Fold(h, uint64(uint32(v)))
	}
	h = trace.Fold(h, out.Draws)
	h = trace.Fold(h, uint64(len(out.Err)))
	for i := 0; i < len(out.Err); i++ {
		h = trace.Fold(h, uint64(out.Err[i]))
	}
	return h
}

// ShardWorker is the worker-process side of the distributed driver: one
// shard of the in-process engine, over one contiguous vertex range. It
// runs the sweep every driver runs (shard.sweep), so node programs observe
// exactly the environment the in-process drivers give them; what it does
// NOT have is the fault plan, the fault RNG, or delivery — those stay on
// the coordinator, which is what keeps socket transport outside the
// determinism surface. The sweep builds its vertices' inboxes by the
// record pull from the records, withheld pairs and late messages each
// RoundInput ships, and reads the input's vertex fates.
type ShardWorker struct {
	cfg   ShardConfig
	sh    *shard // the range's rows, nodes and streams, outbox, inbox scratch and record-pull input; sh.first spans all N vertices, sh.direct only [Lo, Hi)
	round int    // next expected round
}

// NewShardWorker builds the sweep engine for cfg. rows must be the CSR
// rows of [cfg.Lo, cfg.Hi), which the worker keeps and sweeps. factory(v)
// returns vertex v's state machine. NewShardWorker calls it for each owned
// vertex, from one goroutine, in ascending ID order, as NewRunner does, so
// a factory may carve its nodes from its own slab. A fleet that shares one
// factory between its shards must therefore open them one after another —
// the coordinator asks for them in turn. Every node must implement Porter,
// whose word Outputs ships back; a node that does not fails the shard. The
// worker's outbox, which Sweep returns as its packets, reserves one send
// call per owned vertex, what a broadcast-only program makes in a round; a
// round with more calls grows it. Its inbox scratch starts as long as the
// range's widest row, one message per neighbor, and grows when late
// messages or several calls by one sender need more. It indexes every
// shard's records, so its Broadcast index reserves one entry per vertex of
// the graph.
func NewShardWorker(cfg ShardConfig, rows graph.Rows, factory func(v int) Node) (*ShardWorker, error) {
	if cfg.Lo < 0 || cfg.Hi < cfg.Lo || cfg.Hi > cfg.N {
		return nil, fmt.Errorf("congest: shard range [%d, %d) invalid for n=%d", cfg.Lo, cfg.Hi, cfg.N)
	}
	if rows.Lo != cfg.Lo || len(rows.Off) != cfg.Hi-cfg.Lo+1 {
		return nil, fmt.Errorf("congest: shard %d rows from vertex %d with %d offsets do not cover its range [%d, %d)",
			cfg.Index, rows.Lo, len(rows.Off), cfg.Lo, cfg.Hi)
	}
	width := cfg.Hi - cfg.Lo
	sh := new(shard)
	sh.reset(cfg.Lo, cfg.Hi, cfg.N, cfg.Traced)
	sh.rows, sh.nodes, sh.rngs, sh.listHalts = rows, make([]Node, width), make([]rng.RNG, width), true
	root := rng.New(cfg.Seed)
	for v := cfg.Lo; v < cfg.Hi; v++ {
		nd := factory(v)
		if _, ok := nd.(Porter); !ok {
			return nil, fmt.Errorf("congest: distributed runs need every node to implement Porter; vertex %d (%T) does not", v, nd)
		}
		sh.nodes[v-cfg.Lo], sh.rngs[v-cfg.Lo] = nd, *root.Split(uint64(v))
	}
	sh.out = make([]Packet, 0, width)
	sh.inbox = make([]Message, widestRow(rows))
	sh.first, sh.bcast = make([]int32, cfg.N), make([]int32, 0, cfg.N)
	return &ShardWorker{cfg: cfg, sh: sh}, nil
}

// Sweep runs one round over the shard's live vertices and returns their
// send calls — its outbox, one Packet per call, a Broadcast as a single
// BroadcastTo record — buffered trace events, halts and draw totals.
// The returned slices are valid until the next Sweep call. An error
// return is a protocol violation (malformed input, out-of-sequence
// round) and is fatal for the connection; a model violation or a panic by
// a node travels in RoundOutput.Err instead, like the in-process shard
// error.
//
// Sweep runs in a worker process: engine-side randomness (the fault
// stream) must never be drawn here — misvet's draworder analyzer walks
// everything reachable from this root. Node algorithms drawing from
// their own per-vertex Split streams sit behind the Node interface,
// the sanctioned dynamic seam.
//
//draworder:worker
func (w *ShardWorker) Sweep(in RoundInput) (RoundOutput, error) {
	if in.Round != w.round {
		return RoundOutput{}, fmt.Errorf("congest: shard %d expected round %d, got %d", w.cfg.Index, w.round, in.Round)
	}
	if err := w.check(in); err != nil {
		return RoundOutput{}, err
	}
	sh := w.sh
	sh.bcast, sh.direct = indexRecords(in.Records, sh.first, sh.bcast[:0], sh.direct[:0], w.cfg.Lo, w.cfg.Hi)
	sh.recs, sh.held, sh.late, sh.fates = in.Records, in.Withheld, in.Late, in.Fates
	sh.directAt, sh.heldAt, sh.lateAt = 0, 0, 0
	sh.events, sh.out, sh.halted = sh.events[:0], sh.out[:0], sh.halted[:0]
	sh.sweep(in.Round, false)
	w.round++

	out := RoundOutput{
		Packets: sh.out,
		Events:  sh.events,
		Halted:  sh.halted,
		Draws:   drawSum(sh.rngs),
	}
	if sh.err != nil {
		out.Err = sh.err.Error()
	}
	return out, nil
}

// check validates what the sweep relies on: vertex fates that are down or
// gone — the sweep skips any other fate as down — for vertices in the
// shard, strictly ascending by vertex; records from real senders in
// non-decreasing sender order, addressed to the broadcast marker or a real
// vertex; withheld pairs naming a record, for a recipient in the shard,
// strictly ascending by (recipient, record); late messages for recipients
// in the shard, by ascending recipient, from real senders; and no record
// or late message above MaxWireBits. The error names the offending field.
func (w *ShardWorker) check(in RoundInput) error {
	n, lo, hi := w.cfg.N, w.cfg.Lo, w.cfg.Hi
	bad := func(field string, i int, why string) error {
		return fmt.Errorf("congest: shard %d round %d input: %s[%d] %s", w.cfg.Index, in.Round, field, i, why)
	}
	for i, f := range in.Fates {
		switch {
		case f.Fate != int32(faultsim.VertexDown) && f.Fate != int32(faultsim.VertexGone):
			return bad("Fates", i, fmt.Sprintf("fate %d is neither down nor gone", f.Fate))
		case int(f.V) < lo || int(f.V) >= hi:
			return bad("Fates", i, fmt.Sprintf("vertex %d outside the shard [%d, %d)", f.V, lo, hi))
		case i > 0 && f.V <= in.Fates[i-1].V:
			return bad("Fates", i, "vertices not strictly ascending")
		}
	}
	prev := 0
	for i, p := range in.Records {
		switch {
		case p.From < 0 || int(p.From) >= n:
			return bad("Records", i, fmt.Sprintf("sender %d outside [0, %d)", p.From, n))
		case int(p.From) < prev:
			return bad("Records", i, fmt.Sprintf("sender %d follows sender %d: records out of sender order", p.From, prev))
		case p.To < BroadcastTo || int(p.To) >= n:
			return bad("Records", i, fmt.Sprintf("recipient %d is neither a vertex nor the broadcast marker", p.To))
		case p.Wire.Bits > MaxWireBits:
			return bad("Records", i, fmt.Sprintf("carries %d bits, above the %d-bit CONGEST budget", p.Wire.Bits, MaxWireBits))
		}
		prev = int(p.From)
	}
	for i, h := range in.Withheld {
		switch {
		case h.Rec < 0 || int(h.Rec) >= len(in.Records):
			return bad("Withheld", i, fmt.Sprintf("names record %d of %d", h.Rec, len(in.Records)))
		case int(h.To) < lo || int(h.To) >= hi:
			return bad("Withheld", i, fmt.Sprintf("recipient %d outside the shard [%d, %d)", h.To, lo, hi))
		case i > 0 && (h.To < in.Withheld[i-1].To || h.To == in.Withheld[i-1].To && h.Rec <= in.Withheld[i-1].Rec):
			return bad("Withheld", i, "pairs not strictly ascending by (recipient, record)")
		}
	}
	for i, p := range in.Late {
		switch {
		case int(p.To) < lo || int(p.To) >= hi:
			return bad("Late", i, fmt.Sprintf("recipient %d outside the shard [%d, %d)", p.To, lo, hi))
		case i > 0 && p.To < in.Late[i-1].To:
			return bad("Late", i, "recipients out of order")
		case p.From < 0 || int(p.From) >= n:
			return bad("Late", i, fmt.Sprintf("sender %d outside [0, %d)", p.From, n))
		case p.Wire.Bits > MaxWireBits:
			return bad("Late", i, fmt.Sprintf("carries %d bits, above the %d-bit CONGEST budget", p.Wire.Bits, MaxWireBits))
		}
	}
	return nil
}

// drawSum sums the cumulative draw counts of a table of node streams.
func drawSum(rngs []rng.RNG) uint64 {
	var d uint64
	for i := range rngs {
		d += rngs[i].Draws()
	}
	return d
}

// Outputs exports every owned vertex's terminal state, in vertex order.
func (w *ShardWorker) Outputs() []uint64 {
	vals := make([]uint64, len(w.sh.nodes))
	for i, nd := range w.sh.nodes {
		vals[i] = nd.(Porter).ExportState()
	}
	return vals
}
