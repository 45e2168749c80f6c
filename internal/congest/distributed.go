package congest

// This file is the engine side of the distributed multi-process driver
// (DriverDistributed): every shard's nodes live in a separate OS process
// (a shard worker), and the coordinator exchanges round-batched frames
// with the fleet over sockets (internal/distrib provides the transports
// and the binary codec; this file is transport-agnostic).
//
// Determinism contract. The distributed driver reuses the in-process
// coordinator verbatim — runLoop, deliver, the event bus — so everything
// that consumes randomness or emits deterministic events stays on the
// coordinator, in global sender order:
//
//   - fault fates and fault-stream draws happen in deliver, exactly as for
//     the sequential driver (workers never see the fault RNG; they receive
//     the already-drawn vertex fates and the already-filtered inboxes);
//   - shards are contiguous ascending ID ranges and each worker sweeps its
//     nodes in ID order, so concatenating worker outboxes in shard order
//     reproduces the global send order every in-process driver uses;
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
	"math/bits"
	"sort"

	"repro/internal/faultsim"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ShardConfig tells a worker process which slice of the run it owns. It
// carries engine parameters only; the program (algorithm name, arguments)
// and the adjacency of [Lo, Hi) travel with the Fleet implementation,
// which owns the graph and the program spec.
type ShardConfig struct {
	// Index is this shard's position in the fleet; NumShards is the
	// effective shard count (the fleet's size clamped to the vertex count).
	Index, NumShards int
	// Lo, Hi delimit the owned contiguous vertex range [Lo, Hi).
	//idspace:internal
	Lo, Hi int
	// N is the whole graph's vertex count.
	N int
	// Seed is the run's root seed; the worker splits node streams from it
	// exactly as the in-process drivers do.
	Seed uint64
	// MessageBitLimit mirrors Options.MessageBitLimit.
	MessageBitLimit int
	// Traced mirrors whether the run wants the full event stream; workers
	// buffer Context.Emit and halt events only when set.
	Traced bool
	// Layout names the run's vertex ordering (Options.Layout). The fleet
	// resolves it to ship relabeled (internal-order) adjacency plus the
	// internal→external ID map; Lo/Hi/N and every frontier index are in
	// internal order, while node identities stay external.
	Layout string
}

// VertexFate is one non-Up fault verdict for a live vertex this round,
// drawn (purely) on the coordinator and shipped to the owning worker.
// Fate uses the faultsim.VertexState values (1 = down, 2 = gone).
type VertexFate struct {
	//idspace:internal
	V    int32
	Fate int32
}

// RoundInput is one round's coordinator → worker payload: the round
// number, the non-Up fates for the shard's live vertices, and the shard's
// inboxes — per-vertex lengths over [Lo, Hi) plus the concatenated
// messages in ascending vertex order (the coordinator's arena layout).
// The slices are only valid during the Send call they are passed to.
type RoundInput struct {
	Round     int
	Fates     []VertexFate
	InboxLens []int32
	Inbox     []Message
}

// Packet is one outgoing message from a worker sweep, in (sender ID, send
// call) order — the exported form of the engine's internal outbox entry.
type Packet struct {
	// To addresses the coordinator's internal storage; From is the
	// sender's external node identity (what neighbors see on the wire).
	//
	//idspace:internal
	To int32
	//idspace:external
	From int32
	Wire Wire
}

// RoundOutput is one round's worker → coordinator payload.
type RoundOutput struct {
	// Packets are the shard's sends this round in global send order for
	// the shard (ascending sender ID, send-call order per sender).
	Packets []Packet
	// Events are the trace events the sweep buffered (Context.Emit node
	// states and halt events, interleaved per vertex exactly as the
	// in-process sweep produces them). Empty when the run is untraced.
	Events []trace.Event
	// Halted lists the vertices that halted this round, ascending. It is
	// always shipped (even untraced) because the coordinator's live count
	// — and so run termination — depends on it.
	//
	//idspace:internal
	Halted []int32
	// Draws is the worker's cumulative node-RNG draw count over all its
	// vertices, for the coordinator's EvRNG accounting.
	Draws uint64
	// Err is the first model violation a node of this shard committed
	// (send to a non-neighbor, oversized message), as an error string; it
	// aborts the run on the coordinator exactly as sh.err does in-process.
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
	// Send ships one round's input to the worker.
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

// Porter is the node-state transfer contract distributed runs require:
// a worker exports each vertex's terminal state as one 64-bit word and
// the coordinator imports it into its mirror node, so output readers
// (base.Statuses, experiment harnesses) work unchanged. Every MIS node
// type in this repository packs its status losslessly into the word.
type Porter interface {
	// ExportState packs the node's observable output state.
	ExportState() uint64
	// ImportState restores state packed by ExportState.
	ImportState(uint64)
}

// replay-divergence sentinel: a respawned worker's replayed output did not
// digest-match the original. This is a determinism violation, not a
// transient fault, so recovery does not retry past it.
var errReplayDiverged = errors.New("replayed round output diverged from the original (nondeterministic worker)")

// respawnAttempts bounds how many fresh workers recovery will try for one
// shard in one round before declaring the shard lost.
const respawnAttempts = 3

// shardLog is one shard's recovery state: deep copies of every round
// input sent so far, and a digest of every round output received.
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
	lens  [][]int32     // per-shard InboxLens scratch, reused across rounds
	bufs  [][]Message   // per-shard inbox compaction scratch (faulted rounds)
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
	for v, nd := range r.nodes {
		if _, ok := nd.(Porter); !ok {
			ev := v
			if r.ext != nil {
				ev = r.ext[v]
			}
			return Result{}, fmt.Errorf("congest: distributed runs need every node to implement Porter; vertex %d (%T) does not", ev, nd)
		}
	}
	st := r.newExecState(fleet.NumShards())
	st.remote = true
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
	d.lens = make([][]int32, nShards)
	d.bufs = make([][]Message, nShards)
	for s, sh := range d.st.shards {
		if sh.hi <= sh.lo {
			continue
		}
		d.cfgs[s] = ShardConfig{
			Index:           s,
			NumShards:       nShards,
			Lo:              sh.lo,
			Hi:              sh.hi,
			N:               d.r.g.N(),
			Seed:            d.r.opts.Seed,
			MessageBitLimit: d.r.opts.MessageBitLimit,
			Traced:          d.st.full,
			Layout:          d.r.opts.Layout,
		}
		conn, err := d.fleet.Shard(d.cfgs[s])
		if err != nil {
			return fmt.Errorf("congest: distributed shard %d failed to start: %w", s, err)
		}
		d.conns[s] = conn
		d.lens[s] = make([]int32, sh.hi-sh.lo)
		if d.st.plan != nil {
			// Faulted rounds compact the shard's admitted inboxes here: at
			// most one fresh message per incident edge (messages a plan
			// delayed into the same round grow the buffer by append).
			d.bufs[s] = make([]Message, 0, roundBound(d.st.ctxs[sh.lo:sh.hi]))
		}
	}
	return nil
}

// sweep is the distributed driver's round body: build every shard's
// input, ship all inputs, collect all outputs (recovering any shard whose
// connection broke), and merge the outputs into the shard outboxes that
// the shared deliver pass consumes.
func (d *distRun) sweep(round int) {
	st := d.st
	for s, sh := range st.shards {
		if d.conns[s] == nil {
			continue
		}
		in := RoundInput{Round: round}
		if round > 0 && st.plan != nil {
			in.Fates = d.scanFates(sh, round)
		}
		lens := d.lens[s]
		for v := sh.lo; v < sh.hi; v++ {
			lens[v-sh.lo] = int32(st.inboxLen[v])
		}
		in.InboxLens = lens
		if st.plan == nil {
			// Reliable delivery admits every counted message, so the arena
			// segment for [lo, hi) is dense and can ship as one slice.
			start := st.inboxOff[sh.lo]
			end := st.inboxOff[sh.hi-1] + st.inboxLen[sh.hi-1]
			in.Inbox = st.arena[start:end]
		} else {
			// Drops and delays leave gaps between inboxOff[v]+inboxLen[v]
			// and the next vertex's offset: compact the admitted segments.
			buf := d.bufs[s][:0]
			for v := sh.lo; v < sh.hi; v++ {
				off := st.inboxOff[v]
				buf = append(buf, st.arena[off:off+st.inboxLen[v]]...)
			}
			d.bufs[s] = buf
			in.Inbox = buf
		}
		d.ins[s] = in
	}
	d.exchange(round)
	d.apply(round)
}

// scanFates draws the round's vertex fates for a shard's live vertices —
// the same pure plan.Vertex consult the in-process sweep performs — and
// retires permanently-gone vertices from the coordinator's mirror
// frontier, exactly as sweepShard does.
func (d *distRun) scanFates(sh *shard, round int) []VertexFate {
	st := d.st
	var fates []VertexFate
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
			// v indexes the internal frontier; plans speak external IDs.
			switch st.plan.Vertex(round, st.extID(v)) {
			case faultsim.VertexGone:
				fates = append(fates, VertexFate{V: int32(v), Fate: int32(faultsim.VertexGone)})
				sh.frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
			case faultsim.VertexDown:
				fates = append(fates, VertexFate{V: int32(v), Fate: int32(faultsim.VertexDown)})
			}
		}
	}
	return fates
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
			if d.st.full {
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
// state in shard order: outbox packets (validated), buffered trace
// events, halt retirements on the mirror frontier, draw totals, and any
// worker-reported model violation.
func (d *distRun) apply(round int) {
	st := d.st
	var draws uint64
	for s, sh := range st.shards {
		if d.conns[s] == nil || d.errs[s] != nil {
			continue
		}
		out := d.outs[s]
		// Log before interpreting: recovery needs the input/digest pair
		// even for a round that ends the run.
		d.logs[s].inputs = append(d.logs[s].inputs, copyRoundInput(d.ins[s]))
		d.logs[s].digests = append(d.logs[s].digests, outputDigest(out))
		draws += out.Draws
		if out.Err != "" && sh.err == nil {
			sh.err = errors.New(out.Err)
		}
		if sh.err == nil {
			for _, p := range out.Packets {
				// Packet.To addresses internal storage; Packet.From is the
				// sender's external ID, mapped through perm to check it
				// belongs to this shard's internal range.
				ifrom, ok := int(p.From), true
				if st.perm != nil {
					if ifrom < 0 || ifrom >= len(st.perm) {
						ok = false
					} else {
						ifrom = st.perm[ifrom]
					}
				}
				if !ok || int(p.To) < 0 || int(p.To) >= len(st.inboxLen) || ifrom < sh.lo || ifrom >= sh.hi {
					//idspace:ok addressing error: the internal To slot is exactly what went wrong
					sh.err = fmt.Errorf("congest: distributed shard %d returned packet with invalid addressing %d→%d", s, p.From, p.To)
					break
				}
				sh.out[0] = append(sh.out[0], addressed{to: int(p.To), msg: Message{From: int(p.From), Wire: p.Wire}})
			}
		}
		sh.events = append(sh.events, out.Events...)
		for _, v32 := range out.Halted {
			v := int(v32)
			if v < sh.lo || v >= sh.hi {
				if sh.err == nil {
					//idspace:ok addressing error: the internal halt slot is exactly what went wrong
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
		if st.full && d.r.opts.EventTiming {
			//lint:advisory frame bytes and round-trip latency are advisory transport measurements, never program logic
			d.adv = append(d.adv, trace.Event{
				Type: trace.EvFrame, Round: int32(round), V: int32(s),
				X: out.BytesOut, Y: out.BytesIn, Z: out.LatencyNanos,
			})
		}
	}
	st.remoteDraws = draws
}

// afterRound publishes the round's buffered advisory events (frame
// transport measurements, respawns) after delivery, mirroring where the
// pool driver publishes its timing events.
func (d *distRun) afterRound(int) {
	if !d.st.full {
		d.adv = d.adv[:0]
		return
	}
	for _, e := range d.adv {
		d.st.bus.Emit(e)
	}
	d.adv = d.adv[:0]
}

// collectOutputs ends the run on every worker and imports the exported
// per-vertex state into the coordinator's mirror nodes, so output readers
// see exactly what an in-process run leaves behind. When the run already
// failed, transport errors here are ignored (a lost shard cannot export).
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
		for i, x := range vals {
			d.r.nodes[sh.lo+i].(Porter).ImportState(x)
		}
	}
	return nil
}

// copyRoundInput deep-copies a round input for the recovery log: the
// original's Inbox aliases the coordinator's arena (reused every round)
// and InboxLens aliases per-shard scratch.
func copyRoundInput(in RoundInput) RoundInput {
	return RoundInput{
		Round:     in.Round,
		Fates:     append([]VertexFate(nil), in.Fates...),
		InboxLens: append([]int32(nil), in.InboxLens...),
		Inbox:     append([]Message(nil), in.Inbox...),
	}
}

// digest constants: the FNV-1a offset basis seeds the accumulator and the
// Murmur3 finalizer multiplier mixes each word (the same recipe as the
// trace fingerprint, applied to round outputs).
const (
	digestOffset = 0xcbf29ce484222325
	digestMix    = 0xff51afd7ed558ccd
)

// digestFold mixes one word into a round-output digest accumulator.
func digestFold(h, x uint64) uint64 {
	h ^= x
	h *= digestMix
	h ^= h >> 33
	return h
}

// outputDigest summarizes the deterministic content of a round output for
// replay verification. The advisory transport fields are excluded: they
// legitimately differ between the original exchange and a replay.
func outputDigest(out RoundOutput) uint64 {
	h := uint64(digestOffset)
	h = digestFold(h, uint64(len(out.Packets)))
	for _, p := range out.Packets {
		h = digestFold(h, uint64(uint32(p.To))<<32|uint64(uint32(p.From)))
		h = digestFold(h, uint64(p.Wire.Kind)<<16|uint64(p.Wire.Bits))
		h = digestFold(h, p.Wire.A)
		h = digestFold(h, p.Wire.B)
	}
	h = digestFold(h, uint64(len(out.Events)))
	for _, e := range out.Events {
		h = digestFold(h, uint64(e.Type)<<32|uint64(uint32(e.Round)))
		h = digestFold(h, uint64(uint32(e.V))<<32|uint64(uint32(e.W)))
		h = digestFold(h, uint64(e.X))
		h = digestFold(h, uint64(e.Y))
		h = digestFold(h, uint64(e.Z))
	}
	h = digestFold(h, uint64(len(out.Halted)))
	for _, v := range out.Halted {
		h = digestFold(h, uint64(uint32(v)))
	}
	h = digestFold(h, out.Draws)
	h = digestFold(h, uint64(len(out.Err)))
	for i := 0; i < len(out.Err); i++ {
		h = digestFold(h, uint64(out.Err[i]))
	}
	return h
}

// ShardWorker is the worker-process side of the distributed driver: the
// sweep engine for one contiguous vertex shard. It reuses the in-process
// engine's Context and outbox machinery, so node programs observe exactly
// the environment the in-process drivers give them; what it does NOT have
// is the fault plan, the fault RNG, or delivery — those stay on the
// coordinator, which is what keeps socket transport outside the
// determinism surface.
type ShardWorker struct {
	cfg   ShardConfig
	r     *Runner // options/traced carcass for Context plumbing; never Run
	sh    *shard
	ctxs  []Context
	nodes []Node
	//idspace:index internal
	//idspace:external
	ext    []int   // internal -> external ID map; nil = identity layout
	round  int     // next expected round
	fate   []uint8 // per-vertex fate scratch for the current round
	off    []int   // per-vertex inbox offset scratch
	halted []int32
	pkts   []Packet
}

// extID translates one of this shard's internal vertex IDs to its
// external (original) ID.
//
//idspace:internal v
//idspace:returns external
func (w *ShardWorker) extID(v int) int {
	if w.ext == nil {
		return v //idspace:ok identity layout: internal and external IDs coincide
	}
	return w.ext[v]
}

// NewShardWorker builds the sweep engine for cfg. neighbors(v) must
// return the sorted internal-order adjacency of each owned vertex v in
// [cfg.Lo, cfg.Hi). ext maps internal IDs to external (original) IDs for
// the whole graph under a non-identity layout — nil means identity.
// factory is called with external IDs and must return the same state
// machine the coordinator's mirror uses. Every node must implement Porter.
func NewShardWorker(cfg ShardConfig, neighbors func(v int) []int, ext []int, factory func(v int) Node) (*ShardWorker, error) {
	if cfg.Lo < 0 || cfg.Hi < cfg.Lo || cfg.Hi > cfg.N {
		//idspace:ok the shard range is an internal-order concept; the error describes it as such
		return nil, fmt.Errorf("congest: shard range [%d, %d) invalid for n=%d", cfg.Lo, cfg.Hi, cfg.N)
	}
	if ext != nil && len(ext) != cfg.N {
		return nil, fmt.Errorf("congest: shard got %d ID-map entries for n=%d", len(ext), cfg.N)
	}
	width := cfg.Hi - cfg.Lo
	w := &ShardWorker{
		cfg:   cfg,
		r:     &Runner{opts: Options{MessageBitLimit: cfg.MessageBitLimit}, traced: cfg.Traced},
		sh:    &shard{idx: cfg.Index, out: make([][]addressed, 1)},
		ctxs:  make([]Context, width),
		nodes: make([]Node, width),
		ext:   ext,
		fate:  make([]uint8, width),
		off:   make([]int, width),
	}
	w.sh.resetFrontier(cfg.Lo, cfg.Hi)
	root := rng.New(cfg.Seed)
	for v := cfg.Lo; v < cfg.Hi; v++ {
		extv := w.extID(v)
		nd := factory(extv)
		if _, ok := nd.(Porter); !ok {
			return nil, fmt.Errorf("congest: distributed runs need every node to implement Porter; vertex %d (%T) does not", extv, nd)
		}
		i := v - cfg.Lo
		w.nodes[i] = nd
		// The context mirrors the coordinator's: external identity and
		// external-sorted neighbor list, internal send targets. Identity
		// layout aliases the shipped adjacency row for both.
		nbrs := neighbors(v)
		tgts := nbrs
		if ext != nil {
			row := nbrs
			nbrs = make([]int, len(row))
			tgts = make([]int, len(row))
			for j, q := range row {
				nbrs[j] = ext[q]
				tgts[j] = q
			}
			sort.Sort(&pairByExt{ext: nbrs, tgt: tgts})
		}
		w.ctxs[i] = Context{
			id:        extv,
			n:         cfg.N,
			neighbors: nbrs,
			targets:   tgts,
			rng:       *root.Split(uint64(extv)),
			shard:     w.sh,
			runner:    w.r,
		}
	}
	// The shard's sends are reserved at the CONGEST bound; the packet
	// export mirrors the outbox one to one.
	bound := roundBound(w.ctxs)
	w.sh.out[0] = make([]addressed, 0, bound)
	w.pkts = make([]Packet, 0, bound)
	return w, nil
}

// Live returns the number of not-yet-halted vertices in the shard.
func (w *ShardWorker) Live() int { return w.sh.liveCount }

// Sweep runs one round over the shard's live vertices and returns their
// sends, buffered trace events, halts and draw totals. The returned
// slices are valid until the next Sweep call. An error return is a
// protocol violation (malformed input, out-of-sequence round) and is
// fatal for the connection; a model violation by a node travels in
// RoundOutput.Err instead, like the in-process shard error.
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
	width := w.cfg.Hi - w.cfg.Lo
	if len(in.InboxLens) != width {
		return RoundOutput{}, fmt.Errorf("congest: shard %d got %d inbox lengths for %d vertices", w.cfg.Index, len(in.InboxLens), width)
	}
	total := 0
	for i, l := range in.InboxLens {
		if l < 0 {
			//idspace:ok protocol error about internal storage addressing; internal ID is the useful one
			return RoundOutput{}, fmt.Errorf("congest: shard %d got negative inbox length for vertex %d", w.cfg.Index, w.cfg.Lo+i)
		}
		w.off[i] = total
		total += int(l)
	}
	if total != len(in.Inbox) {
		return RoundOutput{}, fmt.Errorf("congest: shard %d inbox has %d messages, lengths sum to %d", w.cfg.Index, len(in.Inbox), total)
	}
	for _, f := range in.Fates {
		if int(f.V) < w.cfg.Lo || int(f.V) >= w.cfg.Hi {
			//idspace:ok protocol error about internal storage addressing; internal ID is the useful one
			return RoundOutput{}, fmt.Errorf("congest: shard %d got fate for foreign vertex %d", w.cfg.Index, f.V)
		}
		w.fate[int(f.V)-w.cfg.Lo] = uint8(f.Fate)
	}

	w.sh.events = w.sh.events[:0]
	w.sh.out[0] = w.sh.out[0][:0]
	w.halted = w.halted[:0]
	w.sweep(in)
	for _, f := range in.Fates {
		w.fate[int(f.V)-w.cfg.Lo] = 0
	}
	w.round++

	w.pkts = w.pkts[:0]
	for _, a := range w.sh.out[0] {
		w.pkts = append(w.pkts, Packet{To: int32(a.to), From: int32(a.msg.From), Wire: a.msg.Wire})
	}
	out := RoundOutput{
		Packets: w.pkts,
		Events:  w.sh.events,
		Halted:  w.halted,
		Draws:   w.draws(),
	}
	if w.sh.err != nil {
		out.Err = w.sh.err.Error()
	}
	return out, nil
}

// sweep is the mirror of the in-process sweepShard over the worker's own
// frontier: live vertices in ascending ID order, fates applied the way
// the coordinator drew them, halts retiring frontier bits.
func (w *ShardWorker) sweep(in RoundInput) {
	sh := w.sh
	round := in.Round
	base := sh.lo >> 6
	for wi := range sh.frontier {
		wd := sh.frontier[wi]
		if wd == 0 {
			continue
		}
		vbase := (base + wi) << 6
		for rem := wd; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			v := vbase + b
			i := v - w.cfg.Lo
			if f := w.fate[i]; f != 0 {
				if f == uint8(faultsim.VertexGone) {
					sh.frontier[wi] &^= 1 << uint(b)
					sh.liveCount--
				}
				continue
			}
			ctx := &w.ctxs[i]
			ctx.round = round
			if round == 0 {
				w.nodes[i].Init(ctx)
			} else {
				off := w.off[i]
				end := off + int(in.InboxLens[i])
				w.nodes[i].Round(ctx, in.Inbox[off:end:end])
			}
			if ctx.halted {
				sh.frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
				// Halted addresses the coordinator's internal frontier;
				// the trace event reports the external identity.
				w.halted = append(w.halted, int32(v))
				if w.r.traced {
					sh.events = append(sh.events, trace.Event{
						Type: trace.EvHalt, Round: int32(round), V: int32(w.extID(v)),
					})
				}
			}
		}
	}
}

// draws sums the cumulative draw counts of the shard's node streams.
func (w *ShardWorker) draws() uint64 {
	var d uint64
	for i := range w.ctxs {
		d += w.ctxs[i].rng.Draws()
	}
	return d
}

// Outputs exports every owned vertex's terminal state, in vertex order.
func (w *ShardWorker) Outputs() []uint64 {
	vals := make([]uint64, len(w.nodes))
	for i, nd := range w.nodes {
		vals[i] = nd.(Porter).ExportState()
	}
	return vals
}
