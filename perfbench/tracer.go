package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// advisory holds the engine's advisory event types, looked up by wire
// name so that a build without one of them still compiles: the lookup
// yields 0, no event carries type 0, and the metrics fed by that type
// report as absent.
type advisory struct {
	busy, merge, rebalance, frame, respawn trace.Type
}

// lookupAdvisory resolves the advisory types through Type.String().
func lookupAdvisory() advisory {
	found := map[string]trace.Type{}
	for t := trace.Type(1); t != 0; t++ {
		found[t.String()] = t
	}
	return advisory{
		busy:      found["shard-busy"],
		merge:     found["merge"],
		rebalance: found["rebalance"],
		frame:     found["frame"],
		respawn:   found["respawn"],
	}
}

// advisoryMetrics maps each advisory event's wire name to the per-layer
// metrics it feeds.
var advisoryMetrics = map[string][]string{
	"shard-busy": {"congest.shard_busy_ms", "congest.shard_imbalance"},
	"merge":      {"congest.merge_ms", "congest.merge_share"},
	"rebalance":  {"congest.rebalances"},
	"frame":      {"distrib.rtt_us_p50", "distrib.rtt_us_p90", "distrib.frame_kb_per_round", "distrib.wait_share"},
	"respawn":    {"distrib.respawns"},
}

// missing returns the wire names this build does not emit.
func (a advisory) missing() []string {
	var m []string
	for name, t := range map[string]trace.Type{
		"shard-busy": a.busy, "merge": a.merge, "rebalance": a.rebalance, "frame": a.frame, "respawn": a.respawn,
	} {
		if t == 0 {
			m = append(m, name)
		}
	}
	return m
}

// roundTrace is one engine round as the sink saw it: wall time between
// its round-start and round-end events, plus what the advisory events
// attributed to it.
type roundTrace struct {
	start, end time.Time
	live       int64   // vertices still live after the round
	busy       []int64 // per-shard sweep ns (pool driver)
	merge      int64   // delivery ns (pool driver)
	maxRTT     int64   // slowest shard round trip, ns (distributed driver)
}

// runTrace is one engine run (one Runner.Run), opened by round-start of
// round 0.
type runTrace struct {
	rounds                   []roundTrace
	sent, delivered, dropped int64
	nodeDraws, faultDraws    int64
}

// span returns the run's wall interval: first round-start to last
// round-end.
func (r *runTrace) span() (time.Time, time.Time) {
	first, last := r.rounds[0], r.rounds[len(r.rounds)-1]
	end := last.end
	if end.IsZero() {
		end = last.start
	}
	return first.start, end
}

// tracer is the traced run's trace.Sink. It timestamps the stable
// round-start and round-end events, sums the rng event, and reads the
// advisory shard-busy, merge, rebalance, frame and respawn events by wire
// name. Per-op state is cleared by reset; events counts every event.
type tracer struct {
	adv    advisory
	events int64

	runs       []runTrace
	rebalances int64
	respawns   int64
	frameBytes int64
	rtts       []float64 // every frame's round trip, µs
}

// newTracer builds a sink with the advisory types resolved.
func newTracer() *tracer { return &tracer{adv: lookupAdvisory()} }

// reset clears the per-op state; the event total keeps counting.
func (t *tracer) reset() {
	t.runs = t.runs[:0]
	t.rebalances, t.respawns, t.frameBytes = 0, 0, 0
	t.rtts = t.rtts[:0]
}

// round returns the current round of the current run, or nil before the
// first round-start.
func (t *tracer) round() *roundTrace {
	if len(t.runs) == 0 {
		return nil
	}
	r := &t.runs[len(t.runs)-1]
	if len(r.rounds) == 0 {
		return nil
	}
	return &r.rounds[len(r.rounds)-1]
}

// Emit implements trace.Sink.
func (t *tracer) Emit(e trace.Event) {
	t.events++
	switch e.Type {
	case trace.EvRoundStart:
		now := time.Now()
		if e.Round == 0 || len(t.runs) == 0 {
			t.runs = append(t.runs, runTrace{})
		}
		r := &t.runs[len(t.runs)-1]
		r.rounds = append(r.rounds, roundTrace{start: now})
	case trace.EvRoundEnd:
		now := time.Now()
		rd := t.round()
		if rd == nil {
			return
		}
		rd.end, rd.live = now, int64(e.V)
		r := &t.runs[len(t.runs)-1]
		r.sent += e.X
		r.delivered += e.Y
		r.dropped += e.Z
	case trace.EvRNG:
		if len(t.runs) > 0 {
			r := &t.runs[len(t.runs)-1]
			r.nodeDraws += e.X
			r.faultDraws += e.Y
		}
	case t.adv.busy:
		if rd := t.round(); rd != nil {
			for int(e.V) >= len(rd.busy) {
				rd.busy = append(rd.busy, 0)
			}
			rd.busy[e.V] += e.X
		}
	case t.adv.merge:
		if rd := t.round(); rd != nil {
			rd.merge += e.X
		}
	case t.adv.rebalance:
		t.rebalances++
	case t.adv.frame:
		t.frameBytes += e.X + e.Y
		t.rtts = append(t.rtts, float64(e.Z)/1e3)
		if rd := t.round(); rd != nil && e.Z > rd.maxRTT {
			rd.maxRTT = e.Z
		}
	case t.adv.respawn:
		t.respawns++
	}
}

// toggle forwards events to a tracer only while on, so one long-lived
// engine can alternate traced and untraced ops.
type toggle struct {
	on bool
	t  *tracer
}

// Emit implements trace.Sink.
func (s *toggle) Emit(e trace.Event) {
	if s.on {
		s.t.Emit(e)
	}
}

// span is one timed interval of the traced run. Op groups the spans of
// one op; ID is unique within the op and Parent names the enclosing span
// (-1 for the op's root).
type span struct {
	op, id, parent int
	name           string
	startNS, endNS int64
}

// maxSpans bounds the spans kept in memory for the spans file.
const maxSpans = 1 << 16

// spanLog keeps spans in memory, with times relative to its epoch, and
// writes them out when the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

// add records one span and returns its ID within op. Spans past maxSpans
// are not kept.
func (l *spanLog) add(op, id, parent int, name string, start, end time.Time) int {
	if len(l.spans) >= maxSpans {
		return id
	}
	l.spans = append(l.spans, span{
		op: op, id: id, parent: parent, name: name,
		startNS: start.Sub(l.epoch).Nanoseconds(), endNS: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// addRuns records each engine run the tracer saw as a span named by
// names[i] under parent, with its rounds as child spans. It returns the
// next free span ID.
func (l *spanLog) addRuns(op, next, parent int, runs []runTrace, names []string) int {
	for i := range runs {
		r := &runs[i]
		if len(r.rounds) == 0 {
			continue
		}
		start, end := r.span()
		name := "run"
		if i < len(names) {
			name = names[i]
		}
		runID := l.add(op, next, parent, name, start, end)
		next++
		for _, rd := range r.rounds {
			if !rd.end.IsZero() {
				l.add(op, next, runID, "round", rd.start, rd.end)
				next++
			}
		}
	}
	return next
}

// write stores the spans as JSON lines in path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, s.id, s.parent, s.name, s.startNS, s.endNS)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// opTrace is what one traced op records into: the sink, the span log and
// the per-layer accumulator. Span 0 is the op itself; next is the next
// free span ID.
type opTrace struct {
	op     int
	next   int
	t      *tracer
	spans  *spanLog
	layers *acc
}

// span records a span of the op and returns its ID.
func (o *opTrace) span(name string, parent int, start, end time.Time) int {
	id := o.next
	o.next++
	return o.spans.add(o.op, id, parent, name, start, end)
}

// engine adds the engine-level metrics of the op's runs: round times,
// live share, messages, draws, drops, and the pool driver's shard and
// merge timing. nodes[k] is run k's vertex count; runMS is the op's time
// inside Runner.Run.
func (o *opTrace) engine(runs []runTrace, nodes []int, runMS float64) {
	l := o.layers
	var delivered, sent, dropped, nodeDraws, faultDraws, busyNS, mergeNS int64
	timed := false
	for k := range runs {
		r := &runs[k]
		delivered += r.delivered
		sent += r.sent
		dropped += r.dropped
		nodeDraws += r.nodeDraws
		faultDraws += r.faultDraws
		var live, ended int64
		for _, rd := range r.rounds {
			if rd.end.IsZero() {
				continue
			}
			d := ms(rd.end.Sub(rd.start))
			l.add("congest.round_ms_p50", d)
			l.add("congest.round_ms_max", d)
			live += rd.live
			ended++
			mergeNS += rd.merge
			if len(rd.busy) == 0 {
				continue
			}
			timed = true
			var sum, top int64
			for _, b := range rd.busy {
				sum += b
				if b > top {
					top = b
				}
			}
			busyNS += sum
			if sum > 0 {
				l.add("congest.shard_imbalance", float64(top)*float64(len(rd.busy))/float64(sum))
			}
		}
		if k < len(nodes) {
			l.frac("congest.live_share", float64(live), float64(int64(nodes[k])*ended))
		}
	}
	l.add("congest.messages_per_op", float64(delivered))
	if delivered > 0 {
		l.add("congest.ns_per_message", runMS*1e6/float64(delivered))
	}
	l.add("rng.node_draws_per_op", float64(nodeDraws))
	l.add("rng.fault_draws_per_op", float64(faultDraws))
	l.frac("faultsim.drop_ratio", float64(dropped), float64(sent))
	l.add("congest.rebalances", float64(o.t.rebalances))
	if timed {
		l.add("congest.shard_busy_ms", float64(busyNS)/1e6)
		l.add("congest.merge_ms", float64(mergeNS)/1e6)
		l.frac("congest.merge_share", float64(mergeNS), runMS*1e6)
	}
}
