package congest

import (
	"time"

	"repro/internal/faultsim"
	"repro/internal/trace"
)

// This file is the engine side of the execution-trace event bus
// (internal/trace): how the drivers publish typed per-round events, and
// how the deprecated Options.Observer / Options.PoolObserver callbacks are
// folded into that bus as adapter sinks.
//
// Determinism contract: tracing is purely observational. Emission consumes
// no randomness, never reorders work, and every deterministic event is
// produced on the coordinator in the same global order under every driver
// (program/halt events ride the same shard-ordered merge as messages), so
// a traced run is bit-identical to an untraced one and deterministic
// events are bit-identical across drivers.

// multiSink fans one event out to several sinks in order.
type multiSink []trace.Sink

// Emit forwards to every sink.
func (m multiSink) Emit(e trace.Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// observerSink adapts the deprecated Options.Observer callback: it fires
// on every round-end event with the same (round, live, sent) triple the
// engine used to deliver directly.
type observerSink struct {
	fn func(round, live int, sent int64)
}

// Emit translates round-end events into Observer calls.
func (s observerSink) Emit(e trace.Event) {
	if e.Type == trace.EvRoundEnd {
		s.fn(int(e.Round), int(e.V), e.X)
	}
}

// poolObserverSink adapts the deprecated Options.PoolObserver callback:
// it reassembles PoolRoundMetrics from the pool driver's timing events
// (shard-busy, merge) and fires once per round on round-end, reusing its
// slices exactly as the old plumbing did.
type poolObserverSink struct {
	fn    func(PoolRoundMetrics)
	m     PoolRoundMetrics
	timed bool // saw a timing event this round
}

// Emit accumulates timing events and flushes on round-end.
func (s *poolObserverSink) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvShardBusy:
		i := int(e.V)
		for len(s.m.Busy) <= i {
			s.m.Busy = append(s.m.Busy, 0)
			s.m.Live = append(s.m.Live, 0)
		}
		s.m.Busy[i] = time.Duration(e.X)
		s.m.Live[i] = int(e.Y)
		s.timed = true
	case trace.EvMerge:
		s.m.Merge = time.Duration(e.X)
		s.timed = true
	case trace.EvRoundEnd:
		if !s.timed {
			return // non-pool driver: PoolObserver stays silent, as before
		}
		s.m.Round = int(e.Round)
		s.fn(s.m)
		s.timed = false
	}
}

// eventBus resolves the run's sink stack. The user sink (Options.Events)
// comes first, then the deprecated adapters in their historical callback
// order (Observer before PoolObserver). full reports whether the rich
// event stream is wanted: the adapters alone only need round-end and
// timing events, so the engine skips the per-round fate/draw bookkeeping
// unless a real sink is attached.
func (o Options) eventBus() (bus trace.Sink, full bool) {
	var sinks multiSink
	if o.Events != nil {
		sinks = append(sinks, o.Events)
	}
	if o.Observer != nil {
		sinks = append(sinks, observerSink{fn: o.Observer})
	}
	if o.PoolObserver != nil {
		sinks = append(sinks, &poolObserverSink{fn: o.PoolObserver})
	}
	switch len(sinks) {
	case 0:
		return nil, false
	case 1:
		return sinks[0], o.Events != nil
	default:
		return sinks, o.Events != nil
	}
}

// timingWanted reports whether the pool driver should pay for wall-clock
// sweep/merge timing: either the deprecated PoolObserver wants its
// metrics, or a tracing sink opted in via EventTiming.
func (o Options) timingWanted() bool {
	return o.PoolObserver != nil || (o.Events != nil && o.EventTiming)
}

// startRound opens a round on the bus: the round-start marker and, when a
// fault plan is active, the non-Up vertex fates for the round (evaluated
// on the coordinator; Vertex is pure and consumes no randomness, so the
// scan cannot perturb the run).
func (r *Runner) startRound(st *execState, round int) {
	if !st.full {
		return
	}
	st.bus.Emit(trace.Event{Type: trace.EvRoundStart, Round: int32(round)})
	if st.plan == nil || round == 0 {
		return
	}
	for v := 0; v < len(st.ctxs); v++ {
		if f := st.plan.Vertex(round, v); f != faultsim.VertexUp {
			st.bus.Emit(trace.Event{
				Type: trace.EvVertexFate, Round: int32(round), V: int32(v), X: int64(f),
			})
		}
	}
}

// endRound closes a round on the bus: RNG draw totals, then the round-end
// record every adapter keys on. Deltas are tracked against the previous
// round so each event describes one round, not a running total.
func (r *Runner) endRound(st *execState, round int) {
	if st.bus == nil {
		return
	}
	sent := st.sent - st.observed
	st.observed = st.sent
	if st.full {
		draws := uint64(0)
		if st.remote {
			draws = st.remoteDraws
		} else {
			for v := range st.ctxs {
				draws += st.ctxs[v].rng.Draws()
			}
		}
		var faultDraws uint64
		if st.faults != nil {
			faultDraws = st.faults.Draws()
		}
		st.bus.Emit(trace.Event{
			Type:  trace.EvRNG,
			Round: int32(round),
			X:     int64(draws - st.lastDraws),
			Y:     int64(faultDraws - st.lastFaultDraws),
		})
		st.lastDraws, st.lastFaultDraws = draws, faultDraws
	}
	st.bus.Emit(trace.Event{
		Type:  trace.EvRoundEnd,
		Round: int32(round),
		V:     int32(st.live),
		X:     sent,
		Y:     st.res.Messages - st.lastDelivered,
		Z:     st.res.Dropped - st.lastDropped,
	})
	st.lastDelivered, st.lastDropped = st.res.Messages, st.res.Dropped
}

// drainShardEvents publishes the program/halt events the shard workers
// buffered during the sweep. Shards cover contiguous ascending vertex
// ranges and are drained in shard order, so the merged stream is in
// ascending vertex order under every driver — the same argument that
// makes message delivery driver-independent.
func (st *execState) drainShardEvents() {
	if !st.full {
		return
	}
	for _, sh := range st.shards {
		for _, e := range sh.events {
			st.bus.Emit(e)
		}
		sh.events = sh.events[:0]
	}
}
