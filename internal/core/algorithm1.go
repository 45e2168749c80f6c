package core

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
	"repro/internal/trace"
)

// ScaleRecord is one node's instrumentation snapshot at the end of a scale,
// taken just before the bad test. It is exactly the quantity the paper's
// Invariant bounds: the number of active neighbors whose active degree
// exceeds the scale's high-degree threshold.
type ScaleRecord struct {
	// Scale is the 1-based scale index k.
	Scale int
	// DegIB is this node's own active degree at the end of the scale.
	DegIB int
	// HighDegNbrs is |{w ∈ Γ_IB(v) : deg_IB(w) > Δ/2ᵏ + α}|.
	HighDegNbrs int
	// Bound is the Invariant's right-hand side Δ/2ᵏ⁺² for this scale.
	Bound int
}

// scaleCode is the node-state event code (congest.Context.Emit) a node
// records each scale's bad test under, with value deg_IB<<32 | the
// high-degree-neighbour count. It lies above every mis/proto announcement
// kind, the codes other programs emit.
const scaleCode = 1 << 8

// ScaleRecords rebuilds each vertex's scale records, in scale order, from
// the event stream of one Algorithm 1 run on an n-vertex graph under
// params (capture it with a trace sink in congest.Options.Events). The
// scale and the bound follow from the event's round; events of any other
// kind or code are skipped, so the stream may hold other programs' runs.
func ScaleRecords(events []trace.Event, params *Params, n int) [][]ScaleRecord {
	records := make([][]ScaleRecord, n)
	for _, e := range events {
		if e.Type != trace.EvNodeState || e.X != scaleCode {
			continue
		}
		scale := params.scaleOf(int(e.Round))
		records[e.V] = append(records[e.V], ScaleRecord{
			Scale:       scale,
			DegIB:       int(e.Y >> 32),
			HighDegNbrs: int(uint32(e.Y)),
			Bound:       params.BadLimit(scale),
		})
	}
	return records
}

// New returns a factory for Algorithm 1 nodes under params, for use with
// congest.NewRunner.
func New(params *Params) func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{params: params, status: base.StatusActive})
	}
}

// node is the per-vertex state machine of Algorithm 1. The whole schedule
// is fixed in advance (nodes know Δ and α, hence Θ, Λ and every
// threshold), so a node derives its current (scale, iteration, phase) from
// the global round number:
//
//	slot s = round; scale k = s/(3Λ+2)+1; within a scale:
//	  slots 0..3Λ-1: priority iterations, three phases each
//	    phase 0: process removals, choose & broadcast priority (ρₖ opt-out)
//	    phase 1: compare priorities; local maxima join I and halt
//	    phase 2: neighbors of joiners announce removal and halt
//	  slot 3Λ:    process removals, broadcast current active degree
//	  slot 3Λ+1:  count high-degree active neighbors and emit the scale
//	              record; nodes over the Invariant bound turn bad,
//	              announce removal and halt
//
// It keeps Γ_IB and deg_IB in its active set, whose removal count fits in
// the node's padding.
type node struct {
	params   *Params
	priority uint64
	status   base.Status
	compete  bool
	active   base.ActiveSet
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// RunAlg1 executes BoundedArbIndependentSet on g and returns each node's
// status — StatusInMIS (joined I), StatusDominated (a neighbor joined I),
// StatusBad (placed in B) or StatusActive (still in V_IB when the scales
// ran out: the deferred set the finishing stages handle) — with the run's
// statistics. Each node's scale records ride opts.Events; ScaleRecords
// rebuilds them.
func RunAlg1(g *graph.Graph, params *Params, opts congest.Options) ([]base.Status, congest.Result, error) {
	if opts.Driver == congest.DriverDistributed {
		return nil, congest.Result{}, errors.New("core: RunAlg1 cannot use the distributed driver: the distrib registry has no Algorithm 1 program")
	}
	if err := params.Validate(); err != nil {
		return nil, congest.Result{}, err
	}
	if params.Delta < g.MaxDegree() {
		return nil, congest.Result{}, fmt.Errorf("core: params built for Δ=%d but graph has Δ=%d", params.Delta, g.MaxDegree())
	}
	return base.Run(g, New(params), opts)
}

func (nd *node) Init(ctx *congest.Context) {
	if nd.params.TotalRounds() == 0 {
		// Θ = 0: the scale loop is empty (paper constants at small Δ);
		// every node stays in V_IB for the finishing stages.
		ctx.Halt()
		return
	}
	nd.startIteration(ctx, 1)
}

// startIteration is phase 0: apply the ρₖ opt-out and broadcast a priority.
func (nd *node) startIteration(ctx *congest.Context, scale int) {
	p := nd.params
	nd.compete = !p.RhoOptOut || nd.active.Count(ctx) <= p.Rho(scale)
	if nd.compete {
		nd.priority = ctx.RNG().Uint64()
	} else {
		nd.priority = 0 // the paper's deterministic r(v) ← 0
	}
	ctx.Broadcast(proto.Priority{Value: nd.priority, Competitive: nd.compete}.Wire())
}

// processRemovals shrinks the node's active set from removal
// announcements.
func (nd *node) processRemovals(ctx *congest.Context, inbox []congest.Message) {
	for _, m := range inbox {
		if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindRemoved {
			nd.active.Remove(ctx, m.From)
		}
	}
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	slot, p := ctx.Round(), nd.params
	inScale := slot % p.RoundsPerScale()
	scale := p.scaleOf(slot)
	last := slot == p.TotalRounds()-1

	switch {
	case inScale < 3*p.Iterations:
		switch inScale % 3 {
		case 0: // fresh iteration
			nd.processRemovals(ctx, inbox)
			nd.startIteration(ctx, scale)
		case 1: // priorities arrived
			if nd.wins(ctx.ID(), inbox) {
				nd.status = base.StatusInMIS
				ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
				ctx.Halt()
			}
		case 2: // join announcements
			for _, m := range inbox {
				if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
					nd.status = base.StatusDominated
					ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
					ctx.Halt()
					return
				}
			}
		}
	case inScale == 3*p.Iterations: // degree exchange
		nd.processRemovals(ctx, inbox)
		ctx.Broadcast(proto.Degree{Value: int32(nd.active.Count(ctx))}.Wire())
	default: // bad test (inScale == 3Λ+1)
		high := 0
		threshold := p.HighDeg(scale)
		for _, m := range inbox {
			if d, ok := proto.AsDegree(m.Wire); ok && nd.active.Contains(ctx, m.From) {
				if int(d.Value) > threshold {
					high++
				}
			}
		}
		ctx.Emit(scaleCode, int64(nd.active.Count(ctx))<<32|int64(high))
		if high > p.BadLimit(scale) {
			nd.status = base.StatusBad
			ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
			ctx.Halt()
			return
		}
		if last {
			ctx.Halt() // survivor: stays StatusActive for the finisher
		}
	}
}

// wins reports whether this node's priority beats every neighbor's. The
// paper's semantics: non-competitive nodes hold r = 0 and can never win;
// the strict comparison r(v) > max r(w) is emulated on 64-bit draws with
// sender-ID tie-breaking.
func (nd *node) wins(id int, inbox []congest.Message) bool {
	if !nd.compete {
		return false
	}
	for _, m := range inbox {
		p, ok := proto.AsPriority(m.Wire)
		if !ok {
			continue
		}
		eff := uint64(0)
		if p.Competitive {
			eff = p.Value
		}
		if eff > nd.priority || (eff == nd.priority && m.From > id) {
			return false
		}
	}
	return true
}
