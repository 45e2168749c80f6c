package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
)

// allTypes is every defined event kind, for exhaustive table checks.
// TestTypeNamesRoundTrip fails when typeNames names a kind missing here.
var allTypes = []Type{
	EvRoundStart, EvVertexFate, EvNodeState, EvHalt, EvDrop, EvDelay,
	EvRNG, EvRoundEnd, EvShardBusy, EvMerge, EvRebalance,
	EvRepair, EvFrame, EvRespawn,
}

func TestTypeNamesRoundTrip(t *testing.T) {
	for _, ty := range allTypes {
		name := ty.String()
		if name == "" || strings.HasPrefix(name, "type(") {
			t.Fatalf("type %d has no wire name", ty)
		}
		if got := TypeFromString(name); got != ty {
			t.Fatalf("TypeFromString(%q) = %d, want %d", name, got, ty)
		}
	}
	for ty, name := range typeNames {
		if name != "" && !slices.Contains(allTypes, Type(ty)) {
			t.Fatalf("typeNames names %q (type %d), which allTypes lacks", name, ty)
		}
	}
	if got := TypeFromString("no-such-event"); got != 0 {
		t.Fatalf("unknown name decoded to %d", got)
	}
	if got := Type(200).String(); got != "type(200)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

func TestDeterministicClassification(t *testing.T) {
	advisory := map[Type]bool{EvShardBusy: true, EvMerge: true, EvRebalance: true, EvFrame: true, EvRespawn: true}
	for _, ty := range allTypes {
		if ty.Deterministic() == advisory[ty] {
			t.Fatalf("type %v: Deterministic() = %v", ty, ty.Deterministic())
		}
	}
}

// sampleTrace builds a small synthetic trace with rounds+1 rounds of
// deterministic events and interleaved advisory noise.
func sampleTrace(rounds int) []Event {
	var ev []Event
	for r := 0; r <= rounds; r++ {
		ev = append(ev,
			Event{Type: EvRoundStart, Round: int32(r)},
			Event{Type: EvShardBusy, Round: int32(r), V: 0, X: int64(1000 + r)},
			Event{Type: EvNodeState, Round: int32(r), V: int32(r % 7), X: 1, Y: int64(r)},
			Event{Type: EvMerge, Round: int32(r), X: 50},
			Event{Type: EvRNG, Round: int32(r), X: int64(10 * r)},
			Event{Type: EvRoundEnd, Round: int32(r), V: int32(100 - r), X: int64(2 * r), Y: int64(2 * r)},
		)
	}
	return ev
}

// checkRecorder feeds events to a fresh Recorder and requires its
// running fingerprint and count to equal the offline hash and the
// deterministic length of the same stream, advisory events included in
// the input and excluded from both.
func checkRecorder(t *testing.T, events []Event) {
	t.Helper()
	rec := NewRecorder()
	for _, e := range events {
		rec.Emit(e)
	}
	if rec.Fingerprint() != Fingerprint(events) {
		t.Fatalf("running fingerprint %#x != offline %#x", rec.Fingerprint(), Fingerprint(events))
	}
	if want := uint64(len(Deterministic(events))); rec.DeterministicCount() != want {
		t.Fatalf("DeterministicCount = %d, want %d", rec.DeterministicCount(), want)
	}
}

// TestRecorderRingWrap checks that the running fingerprint covers a
// stream longer than the 64K-event ring a Recorder once kept: it holds
// no events, so none are evicted and none are missed.
func TestRecorderRingWrap(t *testing.T) {
	events := sampleTrace(11000)
	if len(events) <= 1<<16 {
		t.Fatalf("stream of %d events is no longer than 64K", len(events))
	}
	checkRecorder(t, events)
}

// TestRecorderNoWrap checks a fresh Recorder and a short stream.
func TestRecorderNoWrap(t *testing.T) {
	rec := NewRecorder()
	if rec.Fingerprint() != Fingerprint(nil) || rec.DeterministicCount() != 0 {
		t.Fatalf("fresh recorder: fingerprint %#x over %d events, want %#x over 0",
			rec.Fingerprint(), rec.DeterministicCount(), Fingerprint(nil))
	}
	checkRecorder(t, sampleTrace(3))
	checkRecorder(t, sampleTrace(20))
}

func TestFingerprintSensitivity(t *testing.T) {
	a := sampleTrace(5)
	b := sampleTrace(5)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("equal traces fingerprint differently")
	}
	b[8].X++ // round 1's EvNodeState: deterministic
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("corrupted deterministic event did not change the fingerprint")
	}
	c := sampleTrace(5)
	c[1].X = 999999 // EvShardBusy: advisory
	if Fingerprint(a) != Fingerprint(c) {
		t.Fatal("advisory event perturbed the fingerprint")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleTrace(4)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], events[i])
		}
	}
}

func TestJSONLNegativeFields(t *testing.T) {
	e := Event{Type: EvNodeState, Round: 3, V: -1, W: -2, X: -3, Y: -4, Z: -5}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(e)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("round trip mangled %v into %v", e, got)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"t":"bogus","r":1}` + "\n")); err == nil {
		t.Fatal("unknown event type accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	// Blank lines are tolerated.
	ev, err := ReadJSONL(strings.NewReader("\n" + `{"t":"halt","r":2,"v":7,"w":0,"x":0,"y":0,"z":0}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Type != EvHalt || ev[0].V != 7 {
		t.Fatalf("decoded %v", ev)
	}
}

// encodeJSONL renders events through the JSONL sink.
func encodeJSONL(tb testing.TB, events []Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJSONL feeds arbitrary bytes to the trace decoder, seeded with
// the round-trip and rejection cases above. Decoding must never panic or
// hang, and whatever it accepts must survive a JSONL round trip
// unchanged.
func FuzzReadJSONL(f *testing.F) {
	f.Add(encodeJSONL(f, append(sampleTrace(4), Event{Type: EvNodeState, Round: 3, V: -1, W: -2, X: -3, Y: -4, Z: -5})))
	f.Add([]byte(`{"t":"bogus","r":1}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n" + `{"t":"halt","r":2,"v":7,"w":0,"x":0,"y":0,"z":0}` + "\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadJSONL(bytes.NewReader(encodeJSONL(t, events)))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip decoded %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d: round trip gave %v, want %v", i, again[i], events[i])
			}
		}
	})
}

// errWriter fails after limit bytes, to exercise the sticky error.
type errWriter struct{ limit int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.limit <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	sink := NewJSONLSink(&errWriter{limit: 8})
	for _, e := range sampleTrace(200) { // overflow the 64KiB buffer
		sink.Emit(e)
	}
	for i := 0; i < 20000; i++ {
		sink.Emit(Event{Type: EvHalt, Round: 1, V: int32(i)})
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("write error was swallowed")
	}
}

func TestChromeSinkProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	for _, e := range sampleTrace(3) {
		sink.Emit(e)
	}
	sink.Emit(Event{Type: EvDrop, Round: 4, V: 1, W: 2})
	sink.Emit(Event{Type: EvDelay, Round: 4, V: 1, W: 2, X: 3})
	sink.Emit(Event{Type: EvRoundEnd, Round: 4, V: 90, X: 5, Y: 4, Z: 1})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var rounds, sweeps, counters, meta int
	for _, te := range doc.TraceEvents {
		switch te["ph"] {
		case "X":
			if name, _ := te["name"].(string); strings.HasPrefix(name, "round") {
				rounds++
			} else if name == "sweep" {
				sweeps++
			}
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if rounds != 5 { // rounds 0..3 from sampleTrace plus round 4
		t.Fatalf("chrome trace has %d round slices, want 5", rounds)
	}
	if sweeps != 4 { // one EvShardBusy per sampleTrace round
		t.Fatalf("chrome trace has %d sweep slices, want 4", sweeps)
	}
	if counters == 0 || meta != 2 {
		t.Fatalf("chrome trace counters=%d meta=%d", counters, meta)
	}
}

func TestBisectIdenticalTraces(t *testing.T) {
	a := sampleTrace(10)
	if d := Bisect(a, sampleTrace(10)); d != nil {
		t.Fatalf("identical traces diverge: %v", d)
	}
	// Advisory differences are invisible.
	b := sampleTrace(10)
	for i := range b {
		if !b[i].Type.Deterministic() {
			b[i].X += 12345
		}
	}
	if d := Bisect(a, b); d != nil {
		t.Fatalf("advisory-only difference reported: %v", d)
	}
}

func TestBisectPinpointsCorruption(t *testing.T) {
	a := sampleTrace(50)
	for _, wantRound := range []int{0, 17, 50} {
		b := sampleTrace(50)
		// Corrupt the EvNodeState event of the target round (index 1 of the
		// round's deterministic events: round-start, node-state, rng, end).
		hit := false
		for i := range b {
			if b[i].Type == EvNodeState && int(b[i].Round) == wantRound {
				b[i].Y += 7
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("no node-state event in round %d", wantRound)
		}
		d := Bisect(a, b)
		if d == nil {
			t.Fatalf("round %d corruption not detected", wantRound)
		}
		if d.Round != wantRound || d.Index != 1 {
			t.Fatalf("divergence at round %d index %d, want round %d index 1: %v",
				d.Round, d.Index, wantRound, d)
		}
		if d.A == nil || d.B == nil || d.A.Type != EvNodeState || d.B.Y != d.A.Y+7 {
			t.Fatalf("wrong events reported: %v", d)
		}
	}
}

func TestBisectTraceEndsEarly(t *testing.T) {
	a := sampleTrace(10)
	b := sampleTrace(6)
	d := Bisect(a, b)
	if d == nil {
		t.Fatal("truncated trace not detected")
	}
	if d.Round != 7 || d.A == nil || d.B != nil {
		t.Fatalf("truncation reported as %v, want round 7 with B missing", d)
	}
	// Symmetric direction.
	d = Bisect(b, a)
	if d == nil || d.Round != 7 || d.B == nil || d.A != nil {
		t.Fatalf("reverse truncation reported as %v", d)
	}
}

func TestBisectExtraEventInRound(t *testing.T) {
	a := sampleTrace(5)
	var b []Event
	for _, e := range a {
		b = append(b, e)
		if e.Type == EvNodeState && e.Round == 3 {
			b = append(b, Event{Type: EvHalt, Round: 3, V: 42})
		}
	}
	d := Bisect(a, b)
	if d == nil || d.Round != 3 || d.Index != 2 {
		t.Fatalf("extra event reported as %v, want round 3 index 2", d)
	}
	if d.B == nil || d.B.Type != EvHalt {
		t.Fatalf("wrong event blamed: %v", d)
	}
}

// TestBisectExtraEventEndsRound appends an event to the end of round 3:
// at the first differing position one trace starts round 4 while the
// other still holds round 3's extra event, so the lower round's event is
// blamed and round 4's start is not.
func TestBisectExtraEventEndsRound(t *testing.T) {
	a := sampleTrace(5)
	var b []Event
	for _, e := range a {
		b = append(b, e)
		if e.Type == EvRoundEnd && e.Round == 3 {
			b = append(b, Event{Type: EvHalt, Round: 3, V: 42})
		}
	}
	if got, want := Bisect(a, b).String(), "first divergence at round 3, event 4: <missing> vs halt r=3 v=42"; got != want {
		t.Fatalf("extra event reported as %q, want %q", got, want)
	}
	if got, want := Bisect(b, a).String(), "first divergence at round 3, event 4: halt r=3 v=42 vs <missing>"; got != want {
		t.Fatalf("reverse extra event reported as %q, want %q", got, want)
	}
}

func TestReplayMatchesAndDiverges(t *testing.T) {
	ref := sampleTrace(8)
	replayFrom := func(events []Event) func(Sink) error {
		return func(s Sink) error {
			for _, e := range events {
				s.Emit(e)
			}
			return nil
		}
	}
	d, err := Replay(ref, replayFrom(sampleTrace(8)))
	if err != nil || d != nil {
		t.Fatalf("faithful replay: d=%v err=%v", d, err)
	}
	bad := sampleTrace(8)
	bad[len(bad)-1].V++
	d, err = Replay(ref, replayFrom(bad))
	if err != nil || d == nil || d.Round != 8 {
		t.Fatalf("divergent replay: d=%v err=%v", d, err)
	}
	if _, err = Replay(ref, func(Sink) error { return io.ErrUnexpectedEOF }); err != io.ErrUnexpectedEOF {
		t.Fatalf("run error not propagated: %v", err)
	}
}

func TestDivergenceString(t *testing.T) {
	var d *Divergence
	if d.String() != "traces identical" {
		t.Fatalf("nil divergence renders %q", d.String())
	}
	ev := Event{Type: EvHalt, Round: 4, V: 9}
	d = &Divergence{Round: 4, Index: 2, A: &ev}
	s := d.String()
	if !strings.Contains(s, "round 4") || !strings.Contains(s, "<missing>") {
		t.Fatalf("divergence renders %q", s)
	}
}

func TestEventString(t *testing.T) {
	cases := map[Event]string{
		{Type: EvRoundEnd, Round: 3, V: 120, X: 340, Y: 338, Z: 2}: "round-end r=3 live=120 sent=340 delivered=338 dropped=2",
		{Type: EvVertexFate, Round: 2, V: 9, X: 2}:                 "vertex-fate r=2 v=9 gone",
		{Type: EvDrop, Round: 1, V: 4, W: 5, X: 1}:                 "drop r=1 4→5 (dead-recipient)",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}
