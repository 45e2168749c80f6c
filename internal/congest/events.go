package congest

import (
	"repro/internal/faultsim"
	"repro/internal/trace"
)

// This file is the engine side of the execution-trace event bus
// (internal/trace): how the drivers publish typed per-round events to
// Options.Events.
//
// Determinism contract: tracing is purely observational. Emission consumes
// no randomness, never reorders work, and every deterministic event is
// produced on the coordinator in the same global order under every driver
// (program/halt events ride the same shard-ordered merge as messages), so
// a traced run is bit-identical to an untraced one and deterministic
// events are bit-identical across drivers.

// startRound opens a round on the bus: the round-start marker and, when a
// fault plan is active, the non-Up vertex fates for the round (evaluated
// on the coordinator; Vertex is pure and consumes no randomness, so the
// scan cannot perturb the run).
func (r *Runner) startRound(st *execState, round int) {
	if st.bus == nil {
		return
	}
	st.bus.Emit(trace.Event{Type: trace.EvRoundStart, Round: int32(round)})
	if st.plan == nil || round == 0 {
		return
	}
	for v := 0; v < st.g.N(); v++ {
		if f := st.plan.Vertex(round, v); f != faultsim.VertexUp {
			st.bus.Emit(trace.Event{
				Type: trace.EvVertexFate, Round: int32(round), V: int32(v), X: int64(f),
			})
		}
	}
}

// endRound closes a round on the bus: RNG draw totals, then the round-end
// record. Deltas are tracked against the previous round so each event
// describes one round, not a running total.
func (r *Runner) endRound(st *execState, round int) {
	if st.bus == nil {
		return
	}
	sent := st.sent - st.observed
	st.observed = st.sent
	draws := st.remoteDraws
	if !st.remote {
		draws = drawSum(st.rngs)
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
	if st.bus == nil {
		return
	}
	for _, sh := range st.shards {
		for _, e := range sh.events {
			st.bus.Emit(e)
		}
		sh.events = sh.events[:0]
	}
}
