// Package distrib is the transport layer of the distributed CONGEST
// driver (congest.DriverDistributed): a length-prefixed binary frame
// codec, the self-exec fleet that spawns shard worker processes and
// talks to each over a private unix socket, the worker serve loop, and
// the algorithm registry from which a worker process constructs its
// shard's node state machines.
//
// Determinism contract. Nothing in this package draws randomness or
// makes a scheduling decision that the run can observe: the coordinator
// (internal/congest) performs every fault/RNG draw and every merge in
// global sender order, and this package only moves already-ordered
// round batches across process boundaries. The codec is fully
// deterministic (no maps, no timestamps inside deterministic payloads);
// the advisory frame-byte and latency measurements the connections take
// are reported out of band of the replay digest. Socket I/O helpers that
// must touch the wall clock (spawn and handshake deadlines) carry
// //lint:advisory escapes with their reasons.
package distrib

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/trace"
)

// frameKind tags a protocol frame's payload. The kinds are distrib's own
// namespace (transport frames, not congest.Wire payload kinds). Zero is
// invalid so a truncated or zeroed frame is detectably corrupt.
type frameKind byte

const (
	// fkConfig is coordinator → worker: the shard's run configuration,
	// program spec and, on a spawn, the owned rows of the adjacency. First
	// frame on every connection, and the first of every run.
	fkConfig frameKind = iota + 1
	// fkHello is worker → coordinator: config accepted. It has no body.
	fkHello
	// fkRound is coordinator → worker: one round's input batch.
	fkRound
	// fkSweep is worker → coordinator: one round's output batch.
	fkSweep
	// fkFinish is coordinator → worker: the run is over, export state.
	fkFinish
	// fkOutputs is worker → coordinator: the per-vertex exported states.
	fkOutputs
	// fkError is worker → coordinator: a fatal protocol-level failure
	// (unknown algorithm, malformed input), as text. The connection is
	// dead after it.
	fkError
)

// String names the frame kind for error messages. The switch is the
// canonical kind registry: TestTruncatedFramesRejected requires it to
// name each sample frame's kind byte, one sample per named kind.
func (k frameKind) String() string {
	switch k {
	case fkConfig:
		return "config"
	case fkHello:
		return "hello"
	case fkRound:
		return "round"
	case fkSweep:
		return "sweep"
	case fkFinish:
		return "finish"
	case fkOutputs:
		return "outputs"
	case fkError:
		return "error"
	default:
		return fmt.Sprintf("frame-kind(%d)", byte(k))
	}
}

// maxFrameLen bounds a single frame's payload so a corrupt length prefix
// cannot drive an arbitrarily large allocation.
const maxFrameLen = 1 << 30

// encoder builds one frame payload (kind byte + body) in a reusable
// buffer. Integers use uvarint; signed fields use zigzag; RNG seeds and
// wire words use fixed 8-byte little-endian (they are uniformly random,
// varints would expand them).
type encoder struct {
	buf []byte
}

// reset starts a new payload of the given kind.
func (e *encoder) reset(k frameKind) {
	e.buf = append(e.buf[:0], byte(k))
}

func (e *encoder) u8(x byte)      { e.buf = append(e.buf, x) }
func (e *encoder) u64(x uint64)   { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *encoder) i64(x int64)    { e.buf = binary.AppendVarint(e.buf, x) }
func (e *encoder) fix64(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder walks one frame payload with bounds-checked reads. Every
// failure names the field being read, so a truncated or corrupt frame is
// rejected with a contextual error — never a panic.
type decoder struct {
	buf []byte
	pos int
}

// errTruncated builds the contextual decode error.
func (d *decoder) errAt(field, why string) error {
	return fmt.Errorf("distrib: frame corrupt at byte %d: %s reading %s", d.pos, why, field)
}

func (d *decoder) u8(field string) (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.errAt(field, "truncated")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u64(field string) (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errAt(field, "bad uvarint")
	}
	d.pos += n
	return x, nil
}

func (d *decoder) i64(field string) (int64, error) {
	x, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errAt(field, "bad varint")
	}
	d.pos += n
	return x, nil
}

func (d *decoder) fix64(field string) (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, d.errAt(field, "truncated")
	}
	x := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return x, nil
}

// count reads a collection length and sanity-bounds it with plausible.
func (d *decoder) count(field string, min int) (int, error) {
	x, err := d.u64(field)
	if err != nil {
		return 0, err
	}
	if err := d.plausible(field, x, min); err != nil {
		return 0, err
	}
	return int(x), nil
}

// plausible bounds a collection length against the bytes actually left in
// the frame (each element costs at least min bytes), so a corrupt length
// cannot drive an oversized allocation.
func (d *decoder) plausible(field string, x uint64, min int) error {
	if min < 1 {
		min = 1
	}
	if x > uint64(len(d.buf)-d.pos)/uint64(min)+1 {
		return d.errAt(field, "implausible count")
	}
	if x > math.MaxInt32 {
		return d.errAt(field, "count overflow")
	}
	return nil
}

func (d *decoder) str(field string) (string, error) {
	n, err := d.count(field+" length", 1)
	if err != nil {
		return "", err
	}
	if d.pos+n > len(d.buf) {
		return "", d.errAt(field, "truncated")
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

// done verifies the payload was consumed exactly.
func (d *decoder) done() error {
	if d.pos != len(d.buf) {
		return fmt.Errorf("distrib: frame has %d trailing bytes after payload", len(d.buf)-d.pos)
	}
	return nil
}

// payloadKind splits a frame payload into its kind tag and body.
func payloadKind(p []byte) (frameKind, *decoder, error) {
	if len(p) == 0 {
		return 0, nil, fmt.Errorf("distrib: empty frame payload")
	}
	return frameKind(p[0]), &decoder{buf: p, pos: 1}, nil
}

// configMsg is the fkConfig payload: the engine shard config, the
// program spec and the owned vertices' adjacency rows. Rows with nil Off
// ship the config without rows: a reused worker keeps the rows of its
// spawn handshake, since the fleet's graph never changes.
type configMsg struct {
	cfg  congest.ShardConfig
	prog Program
	rows graph.Rows
}

// encodeConfig serializes a configMsg. A flag byte says whether rows
// follow; the shard's adjacency length comes ahead of them, so the worker
// sizes its adjacency once. Adjacency lists are sorted ascending, so
// neighbors encode as a first absolute ID plus deltas.
func encodeConfig(e *encoder, m configMsg) {
	e.reset(fkConfig)
	c := m.cfg
	e.u64(uint64(c.Index))
	e.u64(uint64(c.Lo))
	e.u64(uint64(c.Hi))
	e.u64(uint64(c.N))
	e.fix64(c.Seed)
	if c.Traced {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(m.prog.Algorithm)
	e.u64(uint64(len(m.prog.Args)))
	for _, a := range m.prog.Args {
		e.fix64(a)
	}
	if m.rows.Off == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	off := m.rows.Off
	e.u64(uint64(off[len(off)-1] - off[0]))
	for i := 1; i < len(off); i++ {
		nbrs := m.rows.Adj[off[i-1]:off[i]]
		e.u64(uint64(len(nbrs)))
		var prev int32
		for i, w := range nbrs {
			if i == 0 {
				e.u64(uint64(w))
			} else {
				e.u64(uint64(w - prev))
			}
			prev = w
		}
	}
}

// decodeConfig parses an fkConfig body into one Rows for the shard's
// range, its offsets and its adjacency each one int32 slice made at the
// length the frame declares, and rejects rows that hold another number of
// neighbors; the rows' Off is nil for a config without rows. Every
// neighbor is below n ≤ math.MaxInt32, and the adjacency holds at most one
// entry per frame byte (maxFrameLen), so neither narrows with loss.
func decodeConfig(d *decoder) (configMsg, error) {
	var m configMsg
	fields := []struct {
		dst  *int
		name string
	}{
		{&m.cfg.Index, "config.index"},
		{&m.cfg.Lo, "config.lo"},
		{&m.cfg.Hi, "config.hi"},
		{&m.cfg.N, "config.n"},
	}
	for _, f := range fields {
		x, err := d.u64(f.name)
		if err != nil {
			return m, err
		}
		if x > math.MaxInt32 {
			return m, d.errAt(f.name, "value overflow")
		}
		*f.dst = int(x)
	}
	seed, err := d.fix64("config.seed")
	if err != nil {
		return m, err
	}
	m.cfg.Seed = seed
	traced, err := d.u8("config.traced")
	if err != nil {
		return m, err
	}
	m.cfg.Traced = traced != 0
	if m.prog.Algorithm, err = d.str("config.algorithm"); err != nil {
		return m, err
	}
	nArgs, err := d.count("config.args", 8)
	if err != nil {
		return m, err
	}
	m.prog.Args = make([]uint64, nArgs)
	for i := range m.prog.Args {
		if m.prog.Args[i], err = d.fix64("config.arg"); err != nil {
			return m, err
		}
	}
	if m.cfg.Lo < 0 || m.cfg.Hi < m.cfg.Lo || m.cfg.Hi > m.cfg.N {
		return m, fmt.Errorf("distrib: config shard range [%d, %d) invalid for n=%d", m.cfg.Lo, m.cfg.Hi, m.cfg.N)
	}
	rows, err := d.u8("config.rows")
	if err != nil {
		return m, err
	}
	switch rows {
	case 0:
		return m, d.done()
	case 1:
	default:
		return m, d.errAt("config.rows", fmt.Sprintf("flag %d is neither 0 nor 1", rows))
	}
	// One neighbor per adjacency entry and one row per owned vertex, each
	// at least one byte.
	nAdj, err := d.count("config.adjacency", 1)
	if err != nil {
		return m, err
	}
	if err := d.plausible("config.rows", uint64(m.cfg.Hi-m.cfg.Lo), 1); err != nil {
		return m, err
	}
	m.rows = graph.Rows{Lo: m.cfg.Lo, Off: make([]int32, 1, m.cfg.Hi-m.cfg.Lo+1), Adj: make([]int32, 0, nAdj)}
	for v := m.cfg.Lo; v < m.cfg.Hi; v++ {
		deg, err := d.count("config.degree", 1)
		if err != nil {
			return m, err
		}
		if deg > nAdj-len(m.rows.Adj) {
			return m, d.errAt("config.adjacency", fmt.Sprintf("rows hold more than the %d neighbors declared", nAdj))
		}
		prev := 0
		for j := range deg {
			delta, err := d.u64("config.neighbor")
			if err != nil {
				return m, err
			}
			if j > 0 && delta == 0 {
				return m, d.errAt("config.neighbor", "non-ascending adjacency")
			}
			// A delta of n or more overshoots every neighbor, and below
			// that prev + delta cannot wrap around onto a lower ID.
			if delta >= uint64(m.cfg.N) {
				return m, d.errAt("config.neighbor", fmt.Sprintf("delta %d not below n=%d", delta, m.cfg.N))
			}
			w := int(delta)
			if j > 0 {
				w += prev
			}
			if w >= m.cfg.N {
				return m, fmt.Errorf("distrib: config adjacency neighbor %d out of range [0, %d)", w, m.cfg.N)
			}
			m.rows.Adj = append(m.rows.Adj, int32(w))
			prev = w
		}
		m.rows.Off = append(m.rows.Off, int32(len(m.rows.Adj)))
	}
	if len(m.rows.Adj) != nAdj {
		return m, d.errAt("config.adjacency", fmt.Sprintf("rows hold %d of the %d neighbors declared", len(m.rows.Adj), nAdj))
	}
	return m, d.done()
}

// encodeHello serializes the worker's post-config acknowledgement.
func encodeHello(e *encoder) {
	e.reset(fkHello)
}

// encodeRound serializes one round input. A record's sender is coded as
// its difference from the previous record's (zigzag, so a worker that
// reads senders out of order sees a negative delta the decoder rejects)
// and its recipient zigzag-coded, so a Broadcast record's
// congest.BroadcastTo takes one byte.
func encodeRound(e *encoder, in congest.RoundInput) {
	e.reset(fkRound)
	e.u64(uint64(in.Round))
	e.u64(uint64(len(in.Fates)))
	for _, f := range in.Fates {
		e.u64(uint64(f.V))
		e.u8(byte(f.Fate))
	}
	e.u64(uint64(len(in.Records)))
	prev := int64(0)
	for _, p := range in.Records {
		e.i64(int64(p.From) - prev)
		prev = int64(p.From)
		e.i64(int64(p.To))
		encodeWire(e, p.Wire)
	}
	e.u64(uint64(len(in.Withheld)))
	for _, h := range in.Withheld {
		e.u64(uint64(h.To))
		e.u64(uint64(h.Rec))
	}
	e.u64(uint64(len(in.Late)))
	for _, p := range in.Late {
		e.u64(uint64(p.To))
		e.u64(uint64(p.From))
		encodeWire(e, p.Wire)
	}
}

// encodeWire serializes one wire payload: kind, bit size, both words.
func encodeWire(e *encoder, w congest.Wire) {
	e.u8(byte(w.Kind))
	e.u64(uint64(w.Bits))
	e.fix64(w.A)
	e.fix64(w.B)
}

// wireFields names a wire payload's four fields in decode errors. The
// names are constants, so decoding a payload builds no string.
type wireFields struct{ kind, bits, a, b string }

var (
	recordWire = wireFields{"round.record-kind", "round.record-bits", "round.record-a", "round.record-b"}
	lateWire   = wireFields{"round.late-kind", "round.late-bits", "round.late-a", "round.late-b"}
	packetWire = wireFields{"sweep.packet-kind", "sweep.packet-bits", "sweep.packet-a", "sweep.packet-b"}
)

// decodeWire parses one wire payload, rejecting a bit size above the
// CONGEST budget.
func decodeWire(d *decoder, f wireFields) (congest.Wire, error) {
	var w congest.Wire
	kind, err := d.u8(f.kind)
	if err != nil {
		return w, err
	}
	w.Kind = congest.WireKind(kind)
	bits, err := d.u64(f.bits)
	if err != nil {
		return w, err
	}
	if bits > congest.MaxWireBits {
		return w, d.errAt(f.bits, "bit size exceeds the CONGEST budget")
	}
	w.Bits = uint16(bits)
	if w.A, err = d.fix64(f.a); err != nil {
		return w, err
	}
	if w.B, err = d.fix64(f.b); err != nil {
		return w, err
	}
	return w, nil
}

// decodeScratch holds the grow-only buffers one connection reuses across
// frame decodes: steady-state rounds re-fill previously allocated slices
// instead of making fresh ones per frame. The decoded structures alias the
// scratch, so a result is valid only until the same scratch's next decode
// — which matches how both ends consume frames (a round input is fully
// swept, a round output fully applied and digested, before the next
// frame is read).
type decodeScratch struct {
	fates  []congest.VertexFate
	recs   []congest.Packet
	held   []congest.Withheld
	late   []congest.Packet
	pkts   []congest.Packet
	events []trace.Event
	halted []int32
	vals   []uint64
}

// grown returns s resized to n elements, reallocating only on growth.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// round parses an fkRound body for the shard cfg describes, reusing the
// scratch buffers. Beyond the framing it checks what the worker's pull
// relies on, each failure naming its field: only down and gone fates;
// records from senders in [0, N) in non-decreasing order, each addressed
// to the broadcast marker or a vertex; withheld pairs naming a record,
// for recipients in [Lo, Hi), strictly ascending by (recipient, record);
// late messages for recipients in [Lo, Hi), by ascending recipient, from
// senders in [0, N); and no record or late message above
// congest.MaxWireBits.
func (sc *decodeScratch) round(d *decoder, cfg congest.ShardConfig) (congest.RoundInput, error) {
	var in congest.RoundInput
	round, err := d.u64("round.number")
	if err != nil {
		return in, err
	}
	if round > math.MaxInt32 {
		return in, d.errAt("round.number", "value overflow")
	}
	in.Round = int(round)
	nFates, err := d.count("round.fates", 2)
	if err != nil {
		return in, err
	}
	sc.fates = grown(sc.fates, nFates)
	in.Fates = sc.fates
	for i := range in.Fates {
		v, err := d.u64("round.fate-vertex")
		if err != nil {
			return in, err
		}
		if v > math.MaxInt32 {
			return in, d.errAt("round.fate-vertex", "value overflow")
		}
		fate, err := d.u8("round.fate")
		if err != nil {
			return in, err
		}
		if fate != byte(faultsim.VertexDown) && fate != byte(faultsim.VertexGone) {
			return in, d.errAt("round.fate", fmt.Sprintf("fate %d is neither down nor gone", fate))
		}
		in.Fates[i] = congest.VertexFate{V: int32(v), Fate: int32(fate)}
	}
	n, lo, hi := int64(cfg.N), int64(cfg.Lo), int64(cfg.Hi)
	nRecs, err := d.count("round.records", 20)
	if err != nil {
		return in, err
	}
	sc.recs = grown(sc.recs, nRecs)
	in.Records = sc.recs
	from := int64(0)
	for i := range in.Records {
		delta, err := d.i64("round.record-from")
		if err != nil {
			return in, err
		}
		if delta < 0 {
			return in, d.errAt("round.record-from", "senders out of order")
		}
		if delta >= n-from {
			return in, d.errAt("round.record-from", "sender outside the graph")
		}
		from += delta
		to, err := d.i64("round.record-to")
		if err != nil {
			return in, err
		}
		if to < congest.BroadcastTo || to >= n {
			return in, d.errAt("round.record-to", "recipient is neither a vertex nor the broadcast marker")
		}
		w, err := decodeWire(d, recordWire)
		if err != nil {
			return in, err
		}
		in.Records[i] = congest.Packet{To: int32(to), From: int32(from), Wire: w}
	}
	nHeld, err := d.count("round.withheld", 2)
	if err != nil {
		return in, err
	}
	sc.held = grown(sc.held, nHeld)
	in.Withheld = sc.held
	for i := range in.Withheld {
		to, err := d.u64("round.withheld-to")
		if err != nil {
			return in, err
		}
		if to < uint64(lo) || to >= uint64(hi) {
			return in, d.errAt("round.withheld-to", "recipient outside the shard")
		}
		rec, err := d.u64("round.withheld-rec")
		if err != nil {
			return in, err
		}
		if rec >= uint64(nRecs) {
			return in, d.errAt("round.withheld-rec", "record index past the records")
		}
		h := congest.Withheld{To: int32(to), Rec: int32(rec)}
		if i > 0 {
			if p := in.Withheld[i-1]; h.To < p.To || h.To == p.To && h.Rec <= p.Rec {
				return in, d.errAt("round.withheld", "pairs not strictly ascending by (recipient, record)")
			}
		}
		in.Withheld[i] = h
	}
	nLate, err := d.count("round.late", 20)
	if err != nil {
		return in, err
	}
	sc.late = grown(sc.late, nLate)
	in.Late = sc.late
	for i := range in.Late {
		to, err := d.u64("round.late-to")
		if err != nil {
			return in, err
		}
		if to < uint64(lo) || to >= uint64(hi) {
			return in, d.errAt("round.late-to", "recipient outside the shard")
		}
		if i > 0 && int32(to) < in.Late[i-1].To {
			return in, d.errAt("round.late-to", "recipients out of order")
		}
		from, err := d.u64("round.late-from")
		if err != nil {
			return in, err
		}
		if from >= uint64(n) {
			return in, d.errAt("round.late-from", "sender outside the graph")
		}
		w, err := decodeWire(d, lateWire)
		if err != nil {
			return in, err
		}
		in.Late[i] = congest.Packet{To: int32(to), From: int32(from), Wire: w}
	}
	return in, d.done()
}

// encodeSweep serializes one round output. A packet's recipient is
// zigzag-coded, so a Broadcast record's congest.BroadcastTo takes one
// byte. The advisory transport fields are connection-side measurements
// and do not travel the wire.
func encodeSweep(e *encoder, out congest.RoundOutput) {
	e.reset(fkSweep)
	e.u64(uint64(len(out.Packets)))
	for _, p := range out.Packets {
		e.i64(int64(p.To))
		e.u64(uint64(p.From))
		encodeWire(e, p.Wire)
	}
	e.u64(uint64(len(out.Events)))
	for _, ev := range out.Events {
		e.u8(byte(ev.Type))
		e.u64(uint64(ev.Round))
		e.i64(int64(ev.V))
		e.i64(int64(ev.W))
		e.i64(ev.X)
		e.i64(ev.Y)
		e.i64(ev.Z)
	}
	e.u64(uint64(len(out.Halted)))
	for _, v := range out.Halted {
		e.u64(uint64(v))
	}
	e.fix64(out.Draws)
	e.str(out.Err)
}

// sweep parses an fkSweep body, reusing the scratch buffers.
func (sc *decodeScratch) sweep(d *decoder) (congest.RoundOutput, error) {
	var out congest.RoundOutput
	nPkts, err := d.count("sweep.packets", 13)
	if err != nil {
		return out, err
	}
	sc.pkts = grown(sc.pkts, nPkts)
	out.Packets = sc.pkts
	for i := range out.Packets {
		var p congest.Packet
		to, err := d.i64("sweep.packet-to")
		if err != nil {
			return out, err
		}
		if to < congest.BroadcastTo || to > math.MaxInt32 {
			return out, d.errAt("sweep.packet-to", "recipient is neither a vertex nor the broadcast marker")
		}
		from, err := d.u64("sweep.packet-from")
		if err != nil {
			return out, err
		}
		if from > math.MaxInt32 {
			return out, d.errAt("sweep.packet-from", "vertex overflow")
		}
		p.To, p.From = int32(to), int32(from)
		if p.Wire, err = decodeWire(d, packetWire); err != nil {
			return out, err
		}
		out.Packets[i] = p
	}
	nEvents, err := d.count("sweep.events", 7)
	if err != nil {
		return out, err
	}
	sc.events = grown(sc.events, nEvents)
	out.Events = sc.events
	for i := range out.Events {
		var ev trace.Event
		t, err := d.u8("sweep.event-type")
		if err != nil {
			return out, err
		}
		ev.Type = trace.Type(t)
		round, err := d.u64("sweep.event-round")
		if err != nil {
			return out, err
		}
		if round > math.MaxInt32 {
			return out, d.errAt("sweep.event-round", "value overflow")
		}
		ev.Round = int32(round)
		v, err := d.i64("sweep.event-v")
		if err != nil {
			return out, err
		}
		w, err := d.i64("sweep.event-w")
		if err != nil {
			return out, err
		}
		if v > math.MaxInt32 || v < math.MinInt32 || w > math.MaxInt32 || w < math.MinInt32 {
			return out, d.errAt("sweep.event", "vertex overflow")
		}
		ev.V, ev.W = int32(v), int32(w)
		if ev.X, err = d.i64("sweep.event-x"); err != nil {
			return out, err
		}
		if ev.Y, err = d.i64("sweep.event-y"); err != nil {
			return out, err
		}
		if ev.Z, err = d.i64("sweep.event-z"); err != nil {
			return out, err
		}
		out.Events[i] = ev
	}
	nHalted, err := d.count("sweep.halted", 1)
	if err != nil {
		return out, err
	}
	sc.halted = grown(sc.halted, nHalted)
	out.Halted = sc.halted
	for i := range out.Halted {
		v, err := d.u64("sweep.halted-vertex")
		if err != nil {
			return out, err
		}
		if v > math.MaxInt32 {
			return out, d.errAt("sweep.halted-vertex", "value overflow")
		}
		out.Halted[i] = int32(v)
	}
	if out.Draws, err = d.fix64("sweep.draws"); err != nil {
		return out, err
	}
	if out.Err, err = d.str("sweep.err"); err != nil {
		return out, err
	}
	return out, d.done()
}

// encodeFinish serializes the end-of-run request.
func encodeFinish(e *encoder) {
	e.reset(fkFinish)
}

// encodeOutputs serializes the worker's exported per-vertex states.
func encodeOutputs(e *encoder, vals []uint64) {
	e.reset(fkOutputs)
	e.u64(uint64(len(vals)))
	for _, x := range vals {
		e.fix64(x)
	}
}

// outputs parses an fkOutputs body, reusing the scratch buffer.
func (sc *decodeScratch) outputs(d *decoder) ([]uint64, error) {
	n, err := d.count("outputs.count", 8)
	if err != nil {
		return nil, err
	}
	sc.vals = grown(sc.vals, n)
	vals := sc.vals
	for i := range vals {
		if vals[i], err = d.fix64("outputs.value"); err != nil {
			return nil, err
		}
	}
	return vals, d.done()
}

// encodeError serializes a fatal worker-side failure.
func encodeError(e *encoder, msg string) {
	e.reset(fkError)
	e.str(msg)
}

// decodeError parses an fkError body.
func decodeError(d *decoder) (string, error) {
	msg, err := d.str("error.message")
	if err != nil {
		return "", err
	}
	return msg, d.done()
}
