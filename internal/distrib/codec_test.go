// Frame codec hardening: round-trip property tests over raw wire-kind
// bytes and boundary bit sizes, the frame-kind registry and the CONGEST
// bit-size bound, plus adversarial decoding — every truncated prefix and
// a fuzz sweep of corrupt payloads must be rejected with a contextual
// error, never a panic, and corrupt counts must not drive oversized
// allocations.
package distrib

import (
	"math"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/proto"
	"repro/internal/rng"
	"repro/internal/trace"
)

// probeKinds are the wire-kind bytes worth probing. The codec carries
// Kind as an opaque byte, so the extremes stand for every kind.
func probeKinds() []congest.WireKind {
	return []congest.WireKind{0, 1, 128, 255}
}

// boundaryBits are the payload sizes worth probing: empty, single bit,
// around the byte boundary, and the engine's 128-bit CONGEST cap.
func boundaryBits() []uint16 {
	return []uint16{0, 1, 7, 8, 63, 64, 127, uint16(congest.MaxWireBits)}
}

// boundaryWords are the 64-bit payload word values worth probing.
func boundaryWords() []uint64 {
	return []uint64{0, 1, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64}
}

// sampleShard is the shard the sample frames describe: the config sample
// configures it, and decodeAs decodes every round frame for it.
var sampleShard = congest.ShardConfig{Index: 1, Lo: 2, Hi: 4, N: 8, Seed: 99}

// decoded is what decodeAs reports of an accepted frame: the wire payloads
// a round frame's records and late messages or a sweep frame's packets
// carry, and a round frame's whole input.
type decoded struct {
	wires []congest.Wire
	round congest.RoundInput
}

// decodeAs reruns payloadKind + the kind's decoder, returning the decode
// error (nil on success) and the payloads and round input the frame
// carries. It is the single entry point the adversarial tests drive so no
// decoder path can panic unobserved.
func decodeAs(payload []byte) (got decoded, err error) {
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return got, err
	}
	switch kind {
	case fkConfig:
		_, err = decodeConfig(dec)
	case fkRound:
		got.round, err = new(decodeScratch).round(dec, sampleShard)
		for _, p := range got.round.Records {
			got.wires = append(got.wires, p.Wire)
		}
		for _, p := range got.round.Late {
			got.wires = append(got.wires, p.Wire)
		}
	case fkSweep:
		var out congest.RoundOutput
		out, err = new(decodeScratch).sweep(dec)
		for _, p := range out.Packets {
			got.wires = append(got.wires, p.Wire)
		}
	case fkHello, fkFinish:
		err = dec.done()
	case fkOutputs:
		_, err = new(decodeScratch).outputs(dec)
	case fkError:
		_, err = decodeError(dec)
	default:
		err = dec.done()
	}
	return got, err
}

// TestRoundTripAllWireKinds sends one record and one late message of
// every probed kind byte at every boundary bit size and word value through
// the round codec: records from ascending senders, two per sender, every
// third a Broadcast, one withheld pair per sender, and the late messages
// spread over the shard.
func TestRoundTripAllWireKinds(t *testing.T) {
	var wires []congest.Wire
	for _, k := range probeKinds() {
		for _, bits := range boundaryBits() {
			for _, word := range boundaryWords() {
				wires = append(wires, congest.Wire{Kind: k, Bits: bits, A: word, B: ^word})
			}
		}
	}
	cfg := congest.ShardConfig{Lo: 100, Hi: 110, N: len(wires) + 200}
	in := congest.RoundInput{
		Round: 3,
		Fates: []congest.VertexFate{{V: 100, Fate: 1}, {V: 109, Fate: 2}},
	}
	for i, w := range wires {
		to := int32(cfg.N - 1 - i)
		if i%3 == 0 {
			to = congest.BroadcastTo
		}
		in.Records = append(in.Records, congest.Packet{To: to, From: int32(i / 2), Wire: w})
		if i%2 == 0 {
			in.Withheld = append(in.Withheld, congest.Withheld{To: int32(cfg.Lo + i*10/len(wires)), Rec: int32(i)})
		}
		in.Late = append(in.Late, congest.Packet{To: int32(cfg.Lo + i*10/len(wires)), From: int32(i), Wire: w})
	}
	var e encoder
	encodeRound(&e, in)
	kind, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != fkRound {
		t.Fatalf("payload kind = %s, want round", kind)
	}
	got, err := new(decodeScratch).round(dec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round input did not survive the round trip:\n got %+v\nwant %+v", got, in)
	}
}

// TestSweepRoundTrip exercises the worker→coordinator payload with
// boundary packets, a Broadcast record between per-neighbor packets,
// negative event fields, and an error string.
func TestSweepRoundTrip(t *testing.T) {
	out := congest.RoundOutput{
		Packets: []congest.Packet{
			{To: 0, From: 0, Wire: congest.Wire{Kind: proto.WirePriority, Bits: 1, A: 1}},
			{To: congest.BroadcastTo, From: 1, Wire: congest.Wire{Kind: proto.WirePriority, Bits: 64, A: math.MaxUint64}},
			{To: 2, From: 1, Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1}},
			{To: math.MaxInt32, From: math.MaxInt32, Wire: congest.Wire{
				Kind: proto.WireForestEdge, Bits: uint16(congest.MaxWireBits),
				A: math.MaxUint64, B: math.MaxUint64,
			}},
		},
		Events: []trace.Event{
			{Type: trace.EvHalt, Round: 7, V: 12},
			{Type: trace.EvNodeState, Round: math.MaxInt32, V: -1, W: math.MinInt32,
				X: math.MinInt64, Y: math.MaxInt64, Z: -1},
		},
		Halted: []int32{0, 5, math.MaxInt32},
		Draws:  math.MaxUint64,
		Err:    "congest: node 5 sent to non-neighbor 9",
	}
	var e encoder
	encodeSweep(&e, out)
	_, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(decodeScratch).sweep(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("sweep output did not survive the round trip:\n got %+v\nwant %+v", got, out)
	}
}

// TestConfigRoundTrip exercises the handshake payload with boundary
// seeds, program args, and gap-heavy adjacency deltas, and the reuse
// handshake's config without rows.
func TestConfigRoundTrip(t *testing.T) {
	m := configMsg{
		cfg: congest.ShardConfig{
			Index: 2, Lo: 10, Hi: 14, N: 1 << 20,
			Seed: math.MaxUint64, Traced: true,
		},
		prog: Program{Algorithm: "colevishkin", Args: []uint64{0, 1, math.MaxUint64, 42}},
		rows: graph.Rows{Lo: 10, Off: []int32{0, 3, 3, 4, 8}, Adj: []int32{0, 1, 1<<20 - 1, 13, 3, 7, 11, 12}},
	}
	var e encoder
	encodeConfig(&e, m)
	_, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeConfig(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("config did not survive the round trip:\n got %+v\nwant %+v", got, m)
	}
	m.rows = graph.Rows{}
	encodeConfig(&e, m)
	_, dec, _ = payloadKind(e.buf)
	if got, err = decodeConfig(dec); err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("config without rows did not survive the round trip: got %+v, %v; want %+v", got, err, m)
	}
}

// TestDecodeConfigBytes bounds what a worker allocates to decode its
// shard's rows, one shard of two of a 2^14-vertex union of two trees, at
// 1.1× the rows it keeps (4 bytes per offset and per adjacency entry) plus
// a constant for the program spec: the frame declares the adjacency
// length, so the decoder makes each slice once instead of growing it.
func TestDecodeConfigBytes(t *testing.T) {
	const n = 1 << 14
	g := gen.UnionOfTrees(n, 2, rng.New(3))
	rows := g.Rows(0, n/2)
	var e encoder
	encodeConfig(&e, configMsg{cfg: congest.ShardConfig{Hi: n / 2, N: n, Seed: 1}, prog: Program{Algorithm: "metivier"}, rows: rows})
	exact := 4 * (len(rows.Off) + int(rows.Off[len(rows.Off)-1]-rows.Off[0]))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	best := ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		_, dec, _ := payloadKind(e.buf)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, err := decodeConfig(dec)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if got := 4 * (len(m.rows.Off) + len(m.rows.Adj)); got != exact {
			t.Fatalf("decoded rows hold %d bytes, want %d", got, exact)
		}
		best = min(best, ms.TotalAlloc-before)
	}
	t.Logf("decoding %d bytes of rows allocates %d (%.2f×)", exact, best, float64(best)/float64(exact))
	if budget := uint64(1.1*float64(exact)) + 4096; best > budget {
		t.Errorf("decodeConfig allocates %d bytes for %d bytes of rows, budget %d", best, exact, budget)
	}
}

// TestSmallFramesRoundTrip covers hello, outputs, error and finish.
func TestSmallFramesRoundTrip(t *testing.T) {
	var e encoder
	encodeHello(&e)
	kind, dec, _ := payloadKind(e.buf)
	if err := dec.done(); kind != fkHello || err != nil {
		t.Fatalf("hello frame should be a bare %s kind byte: got %s, %v", fkHello, kind, err)
	}
	vals := []uint64{0, 1, math.MaxUint64}
	encodeOutputs(&e, vals)
	_, dec, _ = payloadKind(e.buf)
	if got, err := new(decodeScratch).outputs(dec); err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("outputs round trip: %v, %v", got, err)
	}
	encodeError(&e, "boom")
	_, dec, _ = payloadKind(e.buf)
	if msg, err := decodeError(dec); err != nil || msg != "boom" {
		t.Fatalf("error round trip: %q, %v", msg, err)
	}
	encodeFinish(&e)
	_, dec, _ = payloadKind(e.buf)
	if err := dec.done(); err != nil {
		t.Fatalf("finish frame should carry no body: %v", err)
	}
}

// sampleRound is the round sample: it sits at the edge of every rule the
// round decoder enforces, so FuzzDecodeFrame mutates from each edge. Two
// records share a sender (a zero sender delta), one record and one late
// message carry exactly congest.MaxWireBits, the withheld pairs name the
// last record and both ends of the shard and share a recipient, and the
// late messages go to both ends of the shard.
func sampleRound() congest.RoundInput {
	return congest.RoundInput{
		Round: 2,
		Fates: []congest.VertexFate{{V: 3, Fate: 1}},
		Records: []congest.Packet{
			{To: congest.BroadcastTo, From: 1, Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1}},
			{To: 3, From: 5, Wire: congest.Wire{Kind: proto.WireDegree, Bits: 32, A: 9}},
			{To: congest.BroadcastTo, From: 5, Wire: congest.Wire{Kind: proto.WireColor, Bits: 8, A: 3, B: 1}},
			{To: 7, From: 7, Wire: congest.Wire{Kind: proto.WireEpochPriority, Bits: congest.MaxWireBits, A: 4}},
		},
		Withheld: []congest.Withheld{{To: 2, Rec: 0}, {To: 3, Rec: 1}, {To: 3, Rec: 3}},
		Late: []congest.Packet{
			{To: 2, From: 0, Wire: congest.Wire{Kind: proto.WirePriority, Bits: congest.MaxWireBits, A: 5}},
			{To: 3, From: 7, Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1}},
		},
	}
}

// samplePayloads builds one representative encoded payload per frame kind.
// The round sample is sampleRound, and the sweep sample carries a message
// of exactly congest.MaxWireBits, so FuzzDecodeFrame mutates from the
// budget's edge.
func samplePayloads() map[string][]byte {
	var e encoder
	out := map[string][]byte{}
	encodeConfig(&e, configMsg{
		cfg:  sampleShard,
		prog: Program{Algorithm: "metivier", Args: []uint64{7}},
		rows: graph.Rows{Lo: 2, Off: []int32{0, 2, 3}, Adj: []int32{0, 3, 1}},
	})
	out["config"] = append([]byte(nil), e.buf...)
	encodeHello(&e)
	out["hello"] = append([]byte(nil), e.buf...)
	encodeRound(&e, sampleRound())
	out["round"] = append([]byte(nil), e.buf...)
	encodeSweep(&e, congest.RoundOutput{
		Packets: []congest.Packet{
			{To: 1, From: 2, Wire: congest.Wire{Kind: proto.WireDesire, Bits: 2, A: 2}},
			{To: congest.BroadcastTo, From: 3, Wire: congest.Wire{Kind: proto.WirePriority, Bits: 64, A: 5}},
			{To: 4, From: 3, Wire: congest.Wire{Kind: proto.WireEpochPriority, Bits: congest.MaxWireBits, A: 6}},
		},
		Events: []trace.Event{{Type: trace.EvHalt, Round: 2, V: 3}},
		Halted: []int32{3},
		Draws:  17,
		Err:    "",
	})
	out["sweep"] = append([]byte(nil), e.buf...)
	encodeOutputs(&e, []uint64{1, 2, 3})
	out["outputs"] = append([]byte(nil), e.buf...)
	encodeError(&e, "worker failed")
	out["error"] = append([]byte(nil), e.buf...)
	encodeFinish(&e)
	out["finish"] = append([]byte(nil), e.buf...)
	return out
}

// namedFrameKinds is the number of kind bytes frameKind.String names.
func namedFrameKinds() int {
	n := 0
	for b := 0; b < 256; b++ {
		if !strings.HasPrefix(frameKind(b).String(), "frame-kind(") {
			n++
		}
	}
	return n
}

// TestTruncatedFramesRejected decodes every strict prefix of every frame
// kind: each must fail with a contextual error (and never panic) — a
// partial frame cannot be mistaken for a complete one. It also checks the
// frame-kind registry: kind byte 0 stays unnamed, each sample's kind byte
// is named by frameKind.String as its map key, and every named kind has
// one sample, so a zero or duplicated tag or a missing String case fails
// here.
func TestTruncatedFramesRejected(t *testing.T) {
	samples := samplePayloads()
	if name := frameKind(0).String(); !strings.HasPrefix(name, "frame-kind(") {
		t.Fatalf("kind byte 0 is named %q; zero must stay an invalid frame kind", name)
	}
	if n := namedFrameKinds(); len(samples) != n {
		t.Fatalf("%d sample payloads for %d named frame kinds", len(samples), n)
	}
	for name, payload := range samples {
		if got := frameKind(payload[0]).String(); got != name {
			t.Fatalf("%s sample carries kind byte %d, which String names %q", name, payload[0], got)
		}
		if _, err := decodeAs(payload); err != nil {
			t.Fatalf("%s: intact payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			_, err := decodeAs(payload[:cut])
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded cleanly", name, cut, len(payload))
			}
			if !strings.Contains(err.Error(), "distrib:") {
				t.Fatalf("%s: prefix error lacks context: %v", name, err)
			}
		}
	}
}

// TestTrailingBytesRejected appends garbage to every frame kind: done()
// must flag the surplus.
func TestTrailingBytesRejected(t *testing.T) {
	for name, payload := range samplePayloads() {
		grown := append(append([]byte(nil), payload...), 0x5a)
		if _, err := decodeAs(grown); err == nil {
			t.Fatalf("%s: payload with trailing bytes decoded cleanly", name)
		}
	}
}

// oversizedConfig is a config frame claiming a shard of 2^31-1 owned
// vertices whose rows follow, with no adjacency rows behind the claim.
func oversizedConfig() []byte {
	var e encoder
	encodeConfig(&e, configMsg{
		cfg:  congest.ShardConfig{Hi: math.MaxInt32, N: math.MaxInt32},
		prog: Program{Algorithm: "metivier"},
		rows: graph.Rows{Off: []int32{0}},
	})
	return e.buf
}

// TestCorruptCountsRejected hand-crafts payloads whose collection counts
// vastly exceed the bytes present: the plausibility bound must reject
// them before any allocation happens.
func TestCorruptCountsRejected(t *testing.T) {
	var e encoder
	e.reset(fkRound)
	e.u64(0)       // round
	e.u64(1 << 40) // absurd fate count
	_, dec, _ := payloadKind(e.buf)
	if _, err := new(decodeScratch).round(dec, sampleShard); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd fate count not rejected: %v", err)
	}
	e.reset(fkRound)
	e.u64(0)       // round
	e.u64(0)       // fates
	e.u64(1 << 40) // absurd record count
	_, dec, _ = payloadKind(e.buf)
	if _, err := new(decodeScratch).round(dec, sampleShard); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd record count not rejected: %v", err)
	}
	e.reset(fkOutputs)
	e.u64(math.MaxUint64 / 2)
	_, dec, _ = payloadKind(e.buf)
	if _, err := new(decodeScratch).outputs(dec); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd outputs count not rejected: %v", err)
	}
	e.reset(fkError)
	e.u64(1 << 35)
	_, dec, _ = payloadKind(e.buf)
	if _, err := decodeError(dec); err == nil {
		t.Fatal("absurd string length not rejected")
	}
	_, dec, _ = payloadKind(oversizedConfig())
	if _, err := decodeConfig(dec); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd shard width not rejected: %v", err)
	}
}

// TestSweepAddressingRejected hand-crafts sweep frames whose one packet is
// misaddressed or oversized: a recipient below congest.BroadcastTo or
// above math.MaxInt32, a sender above math.MaxInt32, or a bit size above
// congest.MaxWireBits must be rejected with an error naming the field.
func TestSweepAddressingRejected(t *testing.T) {
	cases := []struct {
		name     string
		to       int64
		from     uint64
		bits     uint64
		field    string
		accepted bool
	}{
		{"broadcast marker", congest.BroadcastTo, 7, 64, "", true},
		{"largest recipient", math.MaxInt32, math.MaxInt32, 64, "", true},
		{"largest bit size", 3, 7, congest.MaxWireBits, "", true},
		{"below the marker", congest.BroadcastTo - 1, 7, 64, "sweep.packet-to", false},
		{"most negative", math.MinInt64, 7, 64, "sweep.packet-to", false},
		{"recipient above int32", math.MaxInt32 + 1, 7, 64, "sweep.packet-to", false},
		{"sender above int32", 3, math.MaxInt32 + 1, 64, "sweep.packet-from", false},
		{"bits above the budget", 3, 7, congest.MaxWireBits + 1, "sweep.packet-bits", false},
	}
	for _, c := range cases {
		var e encoder
		e.reset(fkSweep)
		e.u64(1) // one packet
		e.i64(c.to)
		e.u64(c.from)
		e.u8(byte(proto.WirePriority))
		e.u64(c.bits)
		e.fix64(1)
		e.fix64(0)
		e.u64(0) // events
		e.u64(0) // halted
		e.fix64(0)
		e.str("")
		_, dec, _ := payloadKind(e.buf)
		out, err := new(decodeScratch).sweep(dec)
		if c.accepted {
			if err != nil || len(out.Packets) != 1 || int64(out.Packets[0].To) != c.to {
				t.Fatalf("%s: decoded %+v, %v; want one packet to %d", c.name, out.Packets, err, c.to)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "distrib:") || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s: got %v, want a contextual error reading %s", c.name, err, c.field)
		}
	}
}

// roundFrame hand-crafts a round frame for sampleShard [2, 4) of n = 8:
// one fate, then the records (sender delta, recipient, bit size), the
// withheld pairs and the late messages (recipient, sender, bit size), each
// wire of kind WirePriority. It writes the fields raw, so a test can put
// any value where the encoder would not.
type roundFrame struct {
	fate     byte
	records  [][3]int64 // sender delta, recipient, bits
	withheld [][2]uint64
	late     [][3]uint64 // recipient, sender, bits
}

func (f roundFrame) encode() []byte {
	var e encoder
	e.reset(fkRound)
	e.u64(1) // round
	e.u64(1) // one fate
	e.u64(3) // fate vertex
	e.u8(f.fate)
	e.u64(uint64(len(f.records)))
	for _, r := range f.records {
		e.i64(r[0])
		e.i64(r[1])
		e.u8(byte(proto.WirePriority))
		e.u64(uint64(r[2]))
		e.fix64(1)
		e.fix64(0)
	}
	e.u64(uint64(len(f.withheld)))
	for _, h := range f.withheld {
		e.u64(h[0])
		e.u64(h[1])
	}
	e.u64(uint64(len(f.late)))
	for _, l := range f.late {
		e.u64(l[0])
		e.u64(l[1])
		e.u8(byte(proto.WirePriority))
		e.u64(l[2])
		e.fix64(1)
		e.fix64(0)
	}
	return e.buf
}

// TestRoundMessageBitsBound hand-crafts round frames with one vertex fate,
// one record and one late message. A record and a late message at
// congest.MaxWireBits and the two fates the coordinator sends, down and
// gone, are accepted; a record or late message just above the budget is
// rejected with an error naming round.record-bits or round.late-bits, and
// any other fate byte with one naming round.fate.
func TestRoundMessageBitsBound(t *testing.T) {
	down, gone := byte(faultsim.VertexDown), byte(faultsim.VertexGone)
	cases := []struct {
		fate     byte
		rec, lat uint64
		field    string // "" when the frame must be accepted
	}{
		{down, congest.MaxWireBits, congest.MaxWireBits, ""},
		{gone, 64, 1, ""},
		{down, congest.MaxWireBits + 1, 64, "round.record-bits"},
		{down, 64, congest.MaxWireBits + 1, "round.late-bits"},
		{0, 64, 64, "round.fate"},
		{3, 64, 64, "round.fate"},
		{200, 64, 64, "round.fate"},
	}
	for _, c := range cases {
		f := roundFrame{
			fate:    c.fate,
			records: [][3]int64{{4, congest.BroadcastTo, int64(c.rec)}},
			late:    [][3]uint64{{2, 4, c.lat}},
		}
		_, dec, _ := payloadKind(f.encode())
		in, err := new(decodeScratch).round(dec, sampleShard)
		if c.field == "" {
			if err != nil || len(in.Records) != 1 || uint64(in.Records[0].Wire.Bits) != c.rec ||
				len(in.Late) != 1 || uint64(in.Late[0].Wire.Bits) != c.lat ||
				len(in.Fates) != 1 || in.Fates[0].Fate != int32(c.fate) {
				t.Fatalf("fate %d, %d-bit record, %d-bit late message: decoded %+v, %v; want it accepted", c.fate, c.rec, c.lat, in, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "distrib:") || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("fate %d, %d-bit record, %d-bit late message: got %v, want a contextual error reading %s", c.fate, c.rec, c.lat, err, c.field)
		}
	}
}

// TestRoundPullRulesRejected hand-crafts round frames for sampleShard
// [2, 4) of n = 8 that break one rule the worker's pull relies on each —
// senders out of order, a withheld index past the records, a withheld
// recipient outside the shard, withheld pairs out of order or repeated, a
// late message outside the shard or out of recipient order — and requires
// an error naming the field. Each rule's edge decodes cleanly.
func TestRoundPullRulesRejected(t *testing.T) {
	two := [][3]int64{{1, congest.BroadcastTo, 8}, {4, 3, 8}} // senders 1, 5
	cases := []struct {
		name  string
		f     roundFrame
		field string
	}{
		{"equal senders", roundFrame{records: [][3]int64{{5, 3, 8}, {0, congest.BroadcastTo, 8}}}, ""},
		{"sender below the previous", roundFrame{records: [][3]int64{{5, 3, 8}, {-1, congest.BroadcastTo, 8}}}, "round.record-from"},
		{"sender outside the graph", roundFrame{records: [][3]int64{{8, congest.BroadcastTo, 8}}}, "round.record-from"},
		{"recipient outside the graph", roundFrame{records: [][3]int64{{1, 8, 8}}}, "round.record-to"},
		{"recipient below the marker", roundFrame{records: [][3]int64{{1, congest.BroadcastTo - 1, 8}}}, "round.record-to"},
		{"last record withheld", roundFrame{records: two, withheld: [][2]uint64{{2, 0}, {3, 1}}}, ""},
		{"withheld index past the records", roundFrame{records: two, withheld: [][2]uint64{{2, 2}}}, "round.withheld-rec"},
		{"withheld below the shard", roundFrame{records: two, withheld: [][2]uint64{{1, 0}}}, "round.withheld-to"},
		{"withheld above the shard", roundFrame{records: two, withheld: [][2]uint64{{4, 0}}}, "round.withheld-to"},
		{"withheld recipients descending", roundFrame{records: two, withheld: [][2]uint64{{3, 0}, {2, 1}}}, "round.withheld"},
		{"withheld records descending", roundFrame{records: two, withheld: [][2]uint64{{3, 1}, {3, 0}}}, "round.withheld"},
		{"withheld pair repeated", roundFrame{records: two, withheld: [][2]uint64{{3, 1}, {3, 1}}}, "round.withheld"},
		{"late at both ends", roundFrame{late: [][3]uint64{{2, 7, 8}, {3, 0, 8}, {3, 1, 8}}}, ""},
		{"late below the shard", roundFrame{late: [][3]uint64{{1, 0, 8}}}, "round.late-to"},
		{"late above the shard", roundFrame{late: [][3]uint64{{4, 0, 8}}}, "round.late-to"},
		{"late out of order", roundFrame{late: [][3]uint64{{3, 0, 8}, {2, 0, 8}}}, "round.late-to"},
		{"late sender outside the graph", roundFrame{late: [][3]uint64{{2, 8, 8}}}, "round.late-from"},
	}
	for _, c := range cases {
		c.f.fate = byte(faultsim.VertexDown)
		_, dec, _ := payloadKind(c.f.encode())
		_, err := new(decodeScratch).round(dec, sampleShard)
		if c.field == "" {
			if err != nil {
				t.Fatalf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "distrib:") || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s: got %v, want a contextual error reading %s", c.name, err, c.field)
		}
	}
}

// rowsConfig starts a hand-built config frame for shard [0, 2) of n = 8
// whose rows follow and declares their adjacency length; the caller
// writes the rows.
func rowsConfig(e *encoder, adjacency uint64) {
	e.reset(fkConfig)
	for _, x := range []uint64{0, 0, 2, 8} { // index, lo, hi, n
		e.u64(x)
	}
	e.fix64(7) // seed
	e.u8(0)    // traced
	e.str("metivier")
	e.u64(0) // args
	e.u8(1)  // rows follow
	e.u64(adjacency)
}

// TestNonAscendingAdjacencyRejected corrupts a config's delta-coded
// adjacency with a zero delta (a duplicate neighbor) and with a delta of
// 2^64-1, which an int sum would wrap to the neighbor before.
func TestNonAscendingAdjacencyRejected(t *testing.T) {
	for _, c := range []struct {
		delta uint64
		want  string
	}{
		{0, "non-ascending adjacency"},
		{math.MaxUint64, "not below n=8"},
	} {
		var e encoder
		rowsConfig(&e, 3)
		e.u64(3) // degree of vertex 0
		e.u64(4)
		e.u64(c.delta)
		e.u64(1)
		// vertex 1 row omitted: the corrupt delta must fail first.
		_, dec, _ := payloadKind(e.buf)
		if _, err := decodeConfig(dec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("delta %#x: adjacency not rejected with %q: %v", c.delta, c.want, err)
		}
	}
}

// TestAdjacencyLengthMismatchRejected declares one neighbor fewer and one
// more than the config's rows hold (vertex 0: 1 and 3; vertex 1: 0): the
// decoder must reject both, naming config.adjacency.
func TestAdjacencyLengthMismatchRejected(t *testing.T) {
	for _, c := range []struct {
		declared uint64
		want     string
	}{
		{2, "rows hold more than the 2 neighbors declared reading config.adjacency"},
		{4, "rows hold 3 of the 4 neighbors declared reading config.adjacency"},
	} {
		var e encoder
		rowsConfig(&e, c.declared)
		for _, x := range []uint64{2, 1, 2, 1, 0} { // degree, first, delta; degree, first
			e.u64(x)
		}
		_, dec, _ := payloadKind(e.buf)
		if _, err := decodeConfig(dec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("declared %d: rows not rejected with %q: %v", c.declared, c.want, err)
		}
	}
}

// TestDecodeScratchReuse drives one decodeScratch through a sequence of
// frames with very different sizes — the reused-buffer path every worker
// and coordinator connection runs — and checks each decode matches a
// fresh-allocation decode, including shrinking after a large frame.
func TestDecodeScratchReuse(t *testing.T) {
	r := rng.New(0xc0de)
	cfg := congest.ShardConfig{Lo: 100, Hi: 132, N: 1000}
	// mkRound builds a valid input: records from ascending senders, every
	// third a Broadcast, withheld pairs naming records for the shard's
	// vertices in ascending order, late messages by ascending recipient.
	mkRound := func(nRecs, nFates, nLate int) congest.RoundInput {
		in := congest.RoundInput{Round: int(r.Uint64() % 100)}
		for i := 0; i < nFates; i++ {
			in.Fates = append(in.Fates, congest.VertexFate{V: int32(cfg.Lo + i%32), Fate: int32(1 + r.Uint64()%2)})
		}
		for i := 0; i < nRecs; i++ {
			to := int32(r.Uint64() % uint64(cfg.N))
			if i%3 == 0 {
				to = congest.BroadcastTo
			}
			in.Records = append(in.Records, congest.Packet{
				To: to, From: int32(i * cfg.N / (nRecs + 1)),
				Wire: congest.Wire{Kind: proto.WireFlag, Bits: 64, A: r.Uint64()},
			})
			if i%7 == 0 {
				in.Withheld = append(in.Withheld, congest.Withheld{To: int32(cfg.Lo + i*32/nRecs), Rec: int32(i)})
			}
		}
		for i := 0; i < nLate; i++ {
			in.Late = append(in.Late, congest.Packet{
				To: int32(cfg.Lo + i*32/nLate), From: int32(r.Uint64() % uint64(cfg.N)),
				Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: r.Uint64()},
			})
		}
		return in
	}
	var e encoder
	var sc decodeScratch
	sizes := []struct{ recs, fates, late int }{
		{0, 0, 0}, {1000, 64, 32}, {3, 1, 2}, {0, 0, 8}, {500, 0, 16}, {1, 1, 1},
	}
	for i, sz := range sizes {
		in := mkRound(sz.recs, sz.fates, sz.late)
		encodeRound(&e, in)
		_, dec, err := payloadKind(e.buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := sc.round(dec, cfg)
		if err != nil {
			t.Fatalf("frame %d: scratch decode: %v", i, err)
		}
		_, dec, _ = payloadKind(e.buf)
		fresh, err := new(decodeScratch).round(dec, cfg)
		if err != nil {
			t.Fatalf("frame %d: fresh decode: %v", i, err)
		}
		// The scratch path hands back empty (not nil) slices for empty
		// sections; only contents matter on the wire.
		normRound(&got)
		normRound(&fresh)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("frame %d: scratch decode diverged from fresh decode:\n got %+v\nwant %+v", i, got, fresh)
		}
		normRound(&in)
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("frame %d: scratch decode diverged from the encoded input:\n got %+v\nwant %+v", i, got, in)
		}
	}
	// The sweep and outputs paths share the same scratch. Every third
	// packet is a Broadcast record.
	outSizes := []int{0, 2000, 5}
	for i, n := range outSizes {
		out := congest.RoundOutput{Draws: uint64(n)}
		for j := 0; j < n; j++ {
			to := int32(j)
			if j%3 == 0 {
				to = congest.BroadcastTo
			}
			out.Packets = append(out.Packets, congest.Packet{
				To: to, From: int32(j), Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1},
			})
			out.Halted = append(out.Halted, int32(j))
		}
		encodeSweep(&e, out)
		_, dec, _ := payloadKind(e.buf)
		got, err := sc.sweep(dec)
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		_, dec, _ = payloadKind(e.buf)
		fresh, _ := new(decodeScratch).sweep(dec)
		normSweep(&got)
		normSweep(&fresh)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("sweep %d: scratch decode diverged from fresh decode", i)
		}
		vals := make([]uint64, n)
		for j := range vals {
			vals[j] = r.Uint64()
		}
		encodeOutputs(&e, vals)
		_, dec, _ = payloadKind(e.buf)
		gotVals, err := sc.outputs(dec)
		if err != nil {
			t.Fatalf("outputs %d: %v", i, err)
		}
		if len(gotVals) != len(vals) || (len(vals) > 0 && !reflect.DeepEqual(gotVals, vals)) {
			t.Fatalf("outputs %d: scratch decode diverged: got %v want %v", i, gotVals, vals)
		}
	}
}

// normRound and normSweep map empty slices to nil so scratch-backed and
// freshly allocated decodes compare equal.
func normRound(in *congest.RoundInput) {
	if len(in.Fates) == 0 {
		in.Fates = nil
	}
	if len(in.Records) == 0 {
		in.Records = nil
	}
	if len(in.Withheld) == 0 {
		in.Withheld = nil
	}
	if len(in.Late) == 0 {
		in.Late = nil
	}
}

func normSweep(out *congest.RoundOutput) {
	if len(out.Packets) == 0 {
		out.Packets = nil
	}
	if len(out.Events) == 0 {
		out.Events = nil
	}
	if len(out.Halted) == 0 {
		out.Halted = nil
	}
}

// TestFuzzDecodersNeverPanic throws deterministic pseudo-random garbage
// (and mutated valid frames) at every decoder: errors are expected,
// panics and runaway allocations are not.
func TestFuzzDecodersNeverPanic(t *testing.T) {
	r := rng.New(0xf022)
	buf := make([]byte, 256)
	kinds := uint64(namedFrameKinds())
	for trial := 0; trial < 4096; trial++ {
		n := int(r.Uint64() % uint64(len(buf)))
		payload := buf[:n]
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		if n > 0 {
			// Half the trials get a valid kind byte so the real decoders run.
			if r.Uint64()&1 == 0 {
				payload[0] = byte(1 + r.Uint64()%kinds)
			}
		}
		_, _ = decodeAs(payload)
	}
	// Mutate valid frames: flip one byte at a time and decode. Some
	// mutations stay well-formed; the property under test is no-panic.
	for _, payload := range samplePayloads() {
		for i := range payload {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 0xff
			_, _ = decodeAs(mut)
		}
	}
}

// FuzzDecodeFrame is the native-fuzzing counterpart of
// TestFuzzDecodersNeverPanic: any payload must decode or fail with an
// error, never panic or exhaust memory; an accepted sweep frame carries no
// packet, and an accepted round frame no record and no late message,
// above the CONGEST budget, and an accepted round frame no vertex fate
// but down and gone, and withheld pairs and late messages only for
// sampleShard's vertices, in the order the worker's pull walks them.
func FuzzDecodeFrame(f *testing.F) {
	for _, payload := range samplePayloads() {
		f.Add(payload)
	}
	f.Add(oversizedConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeAs(data)
		if err != nil {
			return
		}
		for _, w := range got.wires {
			if w.Bits > congest.MaxWireBits {
				t.Fatalf("accepted a %d-bit message, above congest.MaxWireBits = %d", w.Bits, congest.MaxWireBits)
			}
		}
		in := got.round
		for _, vf := range in.Fates {
			if vf.Fate != int32(faultsim.VertexDown) && vf.Fate != int32(faultsim.VertexGone) {
				t.Fatalf("accepted fate %d for vertex %d, neither down nor gone", vf.Fate, vf.V)
			}
		}
		lo, hi := int32(sampleShard.Lo), int32(sampleShard.Hi)
		for i, p := range in.Records {
			if i > 0 && p.From < in.Records[i-1].From {
				t.Fatalf("accepted record %d from sender %d after sender %d", i, p.From, in.Records[i-1].From)
			}
		}
		for i, h := range in.Withheld {
			if h.To < lo || h.To >= hi || int(h.Rec) >= len(in.Records) ||
				i > 0 && (h.To < in.Withheld[i-1].To || h.To == in.Withheld[i-1].To && h.Rec <= in.Withheld[i-1].Rec) {
				t.Fatalf("accepted withheld pair %d %+v among %d records", i, h, len(in.Records))
			}
		}
		for i, p := range in.Late {
			if p.To < lo || p.To >= hi || i > 0 && p.To < in.Late[i-1].To {
				t.Fatalf("accepted late message %d to %d", i, p.To)
			}
		}
	})
}

// TestFrameConnRoundTrip pushes frames through a real socket pair and
// checks framing, byte accounting, and oversize rejection.
func TestFrameConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fa, fb := newFrameConn(a), newFrameConn(b)

	var e encoder
	encodeError(&e, "addr")
	sent := append([]byte(nil), e.buf...)
	errc := make(chan error, 1)
	go func() { errc <- fa.writeFrame(sent) }()
	payload, err := fb.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-errc; werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(payload, sent) {
		t.Fatalf("frame payload changed in flight: %x != %x", payload, sent)
	}
	if fa.bytesOut != int64(4+len(sent)) || fb.bytesIn != int64(4+len(sent)) {
		t.Fatalf("byte accounting off: out=%d in=%d want %d", fa.bytesOut, fb.bytesIn, 4+len(sent))
	}

	if err := fa.writeFrame(make([]byte, maxFrameLen+1)); err == nil {
		t.Fatal("oversized frame write not rejected")
	}

	// A corrupt length prefix past the cap must be rejected by the reader.
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		a.Write(hdr)
	}()
	if _, err := fb.readFrame(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("corrupt length prefix not rejected: %v", err)
	}
}
