// Package trace is the execution-trace observability subsystem for the
// CONGEST engine: every run can record a typed, structured event stream —
// round boundaries, per-round counters, fault fates, node state
// transitions, RNG draw totals, and (optionally) driver timing — and that
// stream becomes an artifact that can be fingerprinted, stored as JSONL,
// diffed, replayed, or exported to chrome://tracing.
//
// The package is deliberately engine-agnostic: it defines the Event
// vocabulary and the Sink interface, and internal/congest emits into it.
// That direction keeps trace free of engine imports, so Replay and Bisect
// can compare traces from any producer.
//
// Determinism is the organizing idea. Events split into two classes:
//
//   - deterministic events (round boundaries, counters, fault fates, node
//     transitions, halts, RNG draw totals) are bit-identical across the
//     sequential, worker-pool, and distributed drivers for the same seed —
//     they are covered by Fingerprint and compared by Bisect;
//   - advisory events (shard sweep and merge timings, transport frames,
//     respawns) describe how a particular driver executed the run and
//     legitimately differ between drivers; Fingerprint and Bisect ignore
//     them.
//
// The stream is the engine's one way to watch a run
// (congest.Options.Events): a sink that keys on EvRoundEnd sees each
// round's live and sent counts, and one that keys on EvShardBusy and
// EvMerge (with congest.Options.EventTiming) sees the pool driver's
// per-shard and merge timing.
//
// Each job has one sink: a Recorder folds the running fingerprint of the
// deterministic stream in O(1) space and keeps no events, a MemorySink
// captures the whole stream, a JSONLSink writes it to a file, and a
// ChromeSink converts it to the Chrome trace-event format.
package trace

import "fmt"

// Type enumerates the event kinds the engine emits.
type Type uint8

// Event kinds. They start at 1 so a zero-valued event is detectably
// invalid. The field comments give each type's Event field layout.
const (
	// EvRoundStart opens a round (round 0 is Init). No payload fields.
	EvRoundStart Type = iota + 1
	// EvVertexFate reports a fault plan's non-Up verdict for a vertex this
	// round: V = vertex, X = fate (1 = down, 2 = gone).
	EvVertexFate
	// EvNodeState is a program-defined node state transition emitted via
	// congest.Context.Emit: V = vertex, X = program code (the mis/proto
	// announcement kinds by convention, or a program's own code above
	// them), Y = program value.
	EvNodeState
	// EvHalt reports that a node halted this round: V = vertex.
	EvHalt
	// EvDrop reports a message discarded by fault injection: V = sender,
	// W = recipient, X = 1 when the loss was a crashed recipient, 0 for a
	// plan drop. The round is the delivery round the loss happened in
	// (for a crashed recipient, consumption would have been round+1).
	EvDrop
	// EvDelay reports a message deferred by the fault plan: V = sender,
	// W = recipient, X = extra rounds in flight.
	EvDelay
	// EvRNG reports the run's randomness consumption after a round:
	// X = cumulative node-stream draws delta for the round, Y = fault-
	// stream draws delta.
	EvRNG
	// EvRoundEnd closes a round: V = nodes still live, X = messages sent
	// this round (any fate), Y = messages delivered this round,
	// Z = messages dropped this round.
	EvRoundEnd
	// Retired slot (the per-shard traffic matrix event). It stays
	// reserved so every later type keeps its value: type bytes are
	// hashed into pinned fingerprints.
	_
	// EvShardBusy is the advisory per-shard sweep timing from the pool
	// driver: V = shard, X = busy nanoseconds, Y = live nodes in the shard.
	EvShardBusy
	// EvMerge is the advisory coordinator delivery timing from the pool
	// driver: X = delivery nanoseconds, Y = 1 when the round took the
	// broadcast pull (the coordinator only flagged the senders) and 0 when
	// it took the record pull (the coordinator gathered the send records
	// and walked their fates). Either way the workers build the inboxes in
	// the next sweep.
	EvMerge
	// EvRebalance is no longer emitted: pool shards keep their set-up
	// ranges, and the shard rebalancer that recorded its re-cuts here is
	// gone. The type and its wire name "rebalance" stay so the later types
	// keep their fingerprinted values and readers that look the event up
	// by name still resolve it. It is advisory.
	EvRebalance
	// EvRepair is one incremental repair by the dynamic-MIS engine
	// (internal/dynmis): Round = the update-batch index (0 = bootstrap),
	// V = repair-region size, W = free (re-run) vertices in the region,
	// X = CONGEST rounds the repair run took, Y = the repair run's
	// deterministic trace fingerprint, Z = messages delivered. Region
	// discovery and the repair run are deterministic for a fixed
	// (graph, seed, update stream), so the event is deterministic.
	EvRepair
	// EvFrame is the advisory per-shard transport record from the
	// distributed driver: one round-trip of round-batched frames between
	// the coordinator and a shard process. V = shard, X = frame bytes sent
	// to the shard, Y = frame bytes received from it, Z = round-trip
	// latency in nanoseconds. Frame sizes and latency depend on the codec,
	// the socket, and the host, so the event is advisory.
	EvFrame
	// EvRespawn is the advisory crash-recovery record from the distributed
	// driver: a shard process died (or its connection broke) and the
	// coordinator respawned it and replayed its round-input log to catch
	// it up. Round = the round being retried, V = shard, X = rounds
	// replayed during fast-forward. Process death is not derived from the
	// run seed, so the event is advisory.
	EvRespawn
)

// typeNames maps Type to its wire name (JSONL "t" field).
var typeNames = [...]string{
	EvRoundStart: "round-start",
	EvVertexFate: "vertex-fate",
	EvNodeState:  "node-state",
	EvHalt:       "halt",
	EvDrop:       "drop",
	EvDelay:      "delay",
	EvRNG:        "rng",
	EvRoundEnd:   "round-end",
	EvShardBusy:  "shard-busy",
	EvMerge:      "merge",
	EvRebalance:  "rebalance",
	EvRepair:     "repair",
	EvFrame:      "frame",
	EvRespawn:    "respawn",
}

// String returns the event type's wire name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// TypeFromString inverts String; it returns 0 for an unknown name.
func TypeFromString(s string) Type {
	for t, name := range typeNames {
		if name == s {
			return Type(t)
		}
	}
	return 0
}

// Deterministic reports whether events of this type are bit-identical
// across engine drivers for the same seed. Advisory types (timings,
// transport, respawns) depend on the driver's shard layout and wall clock
// and are excluded from Fingerprint and Bisect.
func (t Type) Deterministic() bool {
	switch t {
	case EvShardBusy, EvMerge, EvRebalance, EvFrame, EvRespawn:
		return false
	}
	return true
}

// Event is one trace record. The meaning of V, W, X, Y, Z depends on Type;
// unused fields are zero. The struct is flat and comparable so recording
// is allocation-free and traces can be diffed with ==.
type Event struct {
	// Type is the event kind.
	Type Type
	// Round is the engine round the event belongs to (0 = Init).
	Round int32
	// V and W are the subject vertices or shards (see the Type constants).
	V, W int32
	// X, Y and Z are type-specific values.
	X, Y, Z int64
}

// String renders the event for diagnostics and divergence reports.
func (e Event) String() string {
	switch e.Type {
	case EvRoundStart:
		return fmt.Sprintf("round-start r=%d", e.Round)
	case EvVertexFate:
		fate := "down"
		if e.X == 2 {
			fate = "gone"
		}
		return fmt.Sprintf("vertex-fate r=%d v=%d %s", e.Round, e.V, fate)
	case EvNodeState:
		return fmt.Sprintf("node-state r=%d v=%d code=%d value=%d", e.Round, e.V, e.X, e.Y)
	case EvHalt:
		return fmt.Sprintf("halt r=%d v=%d", e.Round, e.V)
	case EvDrop:
		cause := "plan"
		if e.X == 1 {
			cause = "dead-recipient"
		}
		return fmt.Sprintf("drop r=%d %d→%d (%s)", e.Round, e.V, e.W, cause)
	case EvDelay:
		return fmt.Sprintf("delay r=%d %d→%d +%d rounds", e.Round, e.V, e.W, e.X)
	case EvRNG:
		return fmt.Sprintf("rng r=%d node-draws=%d fault-draws=%d", e.Round, e.X, e.Y)
	case EvRoundEnd:
		return fmt.Sprintf("round-end r=%d live=%d sent=%d delivered=%d dropped=%d",
			e.Round, e.V, e.X, e.Y, e.Z)
	case EvShardBusy:
		return fmt.Sprintf("shard-busy r=%d shard=%d busy=%dns live=%d", e.Round, e.V, e.X, e.Y)
	case EvMerge:
		mode := "record"
		if e.Y == 1 {
			mode = "broadcast"
		}
		return fmt.Sprintf("merge r=%d %dns %s", e.Round, e.X, mode)
	case EvRebalance:
		return fmt.Sprintf("rebalance r=%d live=%d count=%d", e.Round, e.X, e.Y)
	case EvRepair:
		return fmt.Sprintf("repair batch=%d region=%d free=%d rounds=%d fp=%#016x msgs=%d",
			e.Round, e.V, e.W, e.X, uint64(e.Y), e.Z)
	case EvFrame:
		return fmt.Sprintf("frame r=%d shard=%d out=%dB in=%dB rtt=%dns", e.Round, e.V, e.X, e.Y, e.Z)
	case EvRespawn:
		return fmt.Sprintf("respawn r=%d shard=%d replayed=%d", e.Round, e.V, e.X)
	default:
		return fmt.Sprintf("event(%d) r=%d", int(e.Type), e.Round)
	}
}

// Sink consumes a trace event stream. The engine calls Emit on the
// coordinator goroutine only, in a deterministic order for deterministic
// events; a Sink therefore does not need to be safe for concurrent Emit
// calls.
type Sink interface {
	Emit(Event)
}

// Recorder is the running fingerprint of a traced run: it folds every
// deterministic event into a FoldEvent hash and counts them, and keeps no
// events (capture those with a MemorySink). The zero value is not usable;
// construct with NewRecorder.
type Recorder struct {
	fp  uint64
	fpN uint64
}

// NewRecorder returns a recorder that has seen no events.
func NewRecorder() *Recorder {
	return &Recorder{fp: FoldSeed}
}

// Emit folds one deterministic event and skips advisory ones.
func (r *Recorder) Emit(e Event) {
	if e.Type.Deterministic() {
		r.fp = FoldEvent(r.fp, e)
		r.fpN++
	}
}

// Fingerprint returns the FoldEvent hash over every deterministic event
// emitted so far. Two runs with equal fingerprints executed the same
// deterministic event stream; the value is what the golden trace tests
// pin and what the cross-driver matrix compares.
func (r *Recorder) Fingerprint() uint64 { return r.fp }

// DeterministicCount returns how many deterministic events the
// fingerprint covers.
func (r *Recorder) DeterministicCount() uint64 { return r.fpN }

// FoldSeed seeds a fingerprint accumulator: the FNV-1a offset basis, kept
// for its pedigree as a non-trivial seed. Every fingerprint in the module
// starts from it and mixes words with Fold: the trace fingerprint, the
// distributed driver's round-output digests and the dynmis stream
// fingerprint.
const FoldSeed uint64 = 0xcbf29ce484222325

// Fold mixes one word into a fingerprint accumulator: xor, multiply by the
// Murmur3 finalizer constant, xorshift — the Murmur3 finalizer step,
// chosen for avalanche quality at three operations per word.
func Fold(h, x uint64) uint64 {
	h ^= x
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// FoldEvent folds one event into a fingerprint accumulator, hashing every
// field in a fixed word layout. Type and Round share a word (both are
// small), so an event costs five word mixes — the fold is on the hot path
// of every traced run, which rules out byte-at-a-time hashing.
func FoldEvent(h uint64, e Event) uint64 {
	h = Fold(h, uint64(e.Type)<<32|uint64(uint32(e.Round)))
	h = Fold(h, uint64(uint32(e.V))<<32|uint64(uint32(e.W)))
	h = Fold(h, uint64(e.X))
	h = Fold(h, uint64(e.Y))
	return Fold(h, uint64(e.Z))
}

// Fingerprint hashes a recorded event slice the same way a Recorder does
// on the fly, skipping advisory events: a Recorder and a MemorySink
// attached to the same run give rec.Fingerprint() ==
// Fingerprint(mem.Events).
func Fingerprint(events []Event) uint64 {
	h := FoldSeed
	for _, e := range events {
		if e.Type.Deterministic() {
			h = FoldEvent(h, e)
		}
	}
	return h
}

// Deterministic filters a trace to its deterministic events, preserving
// order — the subset Bisect compares.
func Deterministic(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Type.Deterministic() {
			out = append(out, e)
		}
	}
	return out
}
