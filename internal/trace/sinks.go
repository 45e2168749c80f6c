package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// MemorySink accumulates every event in memory, unbounded. It is the sink
// tests and Replay use when the whole stream must be inspected.
type MemorySink struct {
	// Events is the captured stream in emission order.
	Events []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(e Event) { s.Events = append(s.Events, e) }

// JSONLSink streams events to a writer as one JSON object per line:
//
//	{"t":"round-end","r":3,"v":120,"w":0,"x":340,"y":338,"z":2}
//
// The encoding is hand-rolled (strconv into a reused buffer) so a traced
// run does not pay encoding/json reflection per event. Call Flush before
// reading the output.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLSink wraps w in a buffered JSONL encoder.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit writes one line. The first write error sticks and suppresses
// further output; Flush reports it.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = appendEventJSON(s.buf[:0], e)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Flush drains the buffer and returns the first error the sink hit.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// appendEventJSON encodes one event as a JSONL line, newline included.
func appendEventJSON(buf []byte, e Event) []byte {
	buf = append(buf, `{"t":"`...)
	buf = append(buf, e.Type.String()...)
	buf = append(buf, `","r":`...)
	buf = strconv.AppendInt(buf, int64(e.Round), 10)
	buf = append(buf, `,"v":`...)
	buf = strconv.AppendInt(buf, int64(e.V), 10)
	buf = append(buf, `,"w":`...)
	buf = strconv.AppendInt(buf, int64(e.W), 10)
	buf = append(buf, `,"x":`...)
	buf = strconv.AppendInt(buf, e.X, 10)
	buf = append(buf, `,"y":`...)
	buf = strconv.AppendInt(buf, e.Y, 10)
	buf = append(buf, `,"z":`...)
	buf = strconv.AppendInt(buf, e.Z, 10)
	buf = append(buf, "}\n"...)
	return buf
}

// jsonEvent is the wire form ReadJSONL decodes.
type jsonEvent struct {
	T string `json:"t"`
	R int32  `json:"r"`
	V int32  `json:"v"`
	W int32  `json:"w"`
	X int64  `json:"x"`
	Y int64  `json:"y"`
	Z int64  `json:"z"`
}

// ReadJSONL decodes a JSONL trace back into events. Blank lines are
// skipped; an unknown event type or malformed line is an error (a trace
// file is a machine artifact, not a log to be forgiving about).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t := TypeFromString(je.T)
		if t == 0 {
			return nil, fmt.Errorf("trace: line %d: unknown event type %q", line, je.T)
		}
		events = append(events, Event{Type: t, Round: je.R, V: je.V, W: je.W, X: je.X, Y: je.Y, Z: je.Z})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return events, nil
}

// ChromeSink converts the event stream to the Chrome trace-event format,
// loadable in chrome://tracing or https://ui.perfetto.dev. Each round
// becomes a complete ("X") slice on the coordinator track, pool shard
// sweeps become slices on per-shard tracks, and live/traffic counters
// become counter ("C") tracks. Rounds without timing events get a fixed
// synthetic 1ms width so untimed traces still render a readable timeline.
//
// The sink buffers per-round state and must be Closed to produce valid
// JSON.
type ChromeSink struct {
	w   io.Writer
	err error
	n   int // trace events written

	ts         float64 // synthetic timeline cursor, microseconds
	roundStart float64
	shards     []chromeShard
	mergeNS    int64
	delayed    int64
}

// chromeShard is one shard's sweep timing for the current round.
type chromeShard struct {
	shard int32
	busy  int64
	live  int64
}

// NewChromeSink starts a Chrome trace-event JSON document on w.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: w}
	s.printf(`{"displayTimeUnit":"ms","traceEvents":[`)
	return s
}

// printf writes formatted output, latching the first error.
func (s *ChromeSink) printf(format string, args ...any) {
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, format, args...)
}

// entry writes one trace-event object, handling the comma separator.
func (s *ChromeSink) entry(format string, args ...any) {
	if s.n > 0 {
		s.printf(",")
	}
	s.n++
	s.printf("\n"+format, args...)
}

// Emit folds one engine event into the current round's timeline state.
func (s *ChromeSink) Emit(e Event) {
	switch e.Type {
	case EvRoundStart:
		s.roundStart = s.ts
		s.shards = s.shards[:0]
		s.mergeNS, s.delayed = 0, 0
	case EvShardBusy:
		s.shards = append(s.shards, chromeShard{shard: e.V, busy: e.X, live: e.Y})
	case EvMerge:
		s.mergeNS = e.X
	case EvDelay:
		s.delayed++
	case EvRoundEnd:
		s.endRound(e)
	}
}

// endRound flushes the buffered round to the JSON stream and advances the
// synthetic clock.
func (s *ChromeSink) endRound(e Event) {
	maxBusy := int64(0)
	for _, sh := range s.shards {
		if sh.busy > maxBusy {
			maxBusy = sh.busy
		}
	}
	durUS := float64(maxBusy+s.mergeNS) / 1e3
	if durUS <= 0 {
		durUS = 1000 // untimed trace: fixed 1ms per round
	}
	s.entry(`{"name":"round %d","ph":"X","pid":0,"tid":0,"ts":%.3f,"dur":%.3f,`+
		`"args":{"live":%d,"sent":%d,"delivered":%d,"dropped":%d,"delayed":%d}}`,
		e.Round, s.roundStart, durUS, e.V, e.X, e.Y, e.Z, s.delayed)
	for _, sh := range s.shards {
		s.entry(`{"name":"sweep","ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"live":%d}}`,
			sh.shard+1, s.roundStart, float64(sh.busy)/1e3, sh.live)
	}
	if s.mergeNS > 0 {
		s.entry(`{"name":"merge","ph":"X","pid":0,"tid":0,"ts":%.3f,"dur":%.3f,"args":{}}`,
			s.roundStart+float64(maxBusy)/1e3, float64(s.mergeNS)/1e3)
	}
	s.entry(`{"name":"live nodes","ph":"C","pid":0,"ts":%.3f,"args":{"live":%d}}`,
		s.roundStart, e.V)
	s.entry(`{"name":"traffic","ph":"C","pid":0,"ts":%.3f,"args":{"delivered":%d,"dropped":%d}}`,
		s.roundStart, e.Y, e.Z)
	s.ts = s.roundStart + durUS
	// Reset round state here too, so a stream without round-start markers
	// (an adapter-only trace) never re-flushes a stale shard slice.
	s.roundStart = s.ts
	s.shards = s.shards[:0]
	s.mergeNS, s.delayed = 0, 0
}

// Close writes the metadata records and terminates the JSON document.
func (s *ChromeSink) Close() error {
	s.entry(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"congest run"}}`)
	s.entry(`{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"coordinator"}}`)
	s.printf("\n]}\n")
	return s.err
}
