package core

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
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

// Alg1Output is the result of one BoundedArbIndependentSet run.
type Alg1Output struct {
	// Statuses holds, per node: StatusInMIS (joined I), StatusDominated
	// (neighbor joined I), StatusBad (placed in B), or StatusActive (still
	// in V_IB when the scales ran out — the deferred set the finishing
	// stages handle).
	Statuses []base.Status
	// Traces[v] holds v's per-scale records for the scales it survived.
	Traces [][]ScaleRecord
	// Result carries engine round/message accounting.
	Result congest.Result
	// Params echoes the parameters the run used.
	Params *Params
}

// CountStatus tallies how many nodes finished with status s.
func (o *Alg1Output) CountStatus(s base.Status) int {
	n := 0
	for _, got := range o.Statuses {
		if got == s {
			n++
		}
	}
	return n
}

// alg1Run is one Algorithm 1 run's state. Every vertex's node lives in one
// slab and the scale records in one per-vertex table that becomes
// Alg1Output.Traces as is; the active-neighbour flags are the engine's
// marks (congest.Context.Marks). So the only per-vertex allocations left
// are the backing arrays of the records a run returns. A node reaches the
// run through its one pointer; shard workers write only their own
// vertices' entries.
type alg1Run struct {
	params *Params
	nodes  []node
	traces [][]ScaleRecord // traces[v]: v's records, appended at each scale's bad test
}

func newAlg1Run(g *graph.Graph, params *Params) *alg1Run {
	return &alg1Run{
		params: params,
		nodes:  make([]node, g.N()),
		traces: make([][]ScaleRecord, g.N()),
	}
}

// newNode is the node factory: it hands out vertex v's node from the slab.
func (run *alg1Run) newNode(v int) congest.Node {
	nd := &run.nodes[v]
	*nd = node{run: run, status: base.StatusActive}
	return nd
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
//	  slot 3Λ+1:  count high-degree active neighbors; nodes over the
//	              Invariant bound turn bad, announce removal and halt
//
// It keeps Γ_IB and deg_IB in its active set, whose removal count fits in
// the node's padding; its scale records live in the run, indexed by
// ctx.ID().
type node struct {
	run      *alg1Run
	priority uint64
	status   base.Status
	compete  bool
	active   base.ActiveSet
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// RunAlg1 executes BoundedArbIndependentSet on g. It reads each node's
// scale records after the run, so it refuses the distributed driver.
func RunAlg1(g *graph.Graph, params *Params, opts congest.Options) (*Alg1Output, error) {
	if opts.Driver == congest.DriverDistributed {
		return nil, errors.New("core: RunAlg1 reads each node's scale records in process; the distributed driver returns one output word per vertex")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Delta < g.MaxDegree() {
		return nil, fmt.Errorf("core: params built for Δ=%d but graph has Δ=%d", params.Delta, g.MaxDegree())
	}
	run := newAlg1Run(g, params)
	r := congest.NewRunner(g, run.newNode, opts)
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	return &Alg1Output{
		Statuses: base.Statuses(r, g.N()),
		Traces:   run.traces,
		Result:   res,
		Params:   params,
	}, nil
}

func (nd *node) Init(ctx *congest.Context) {
	if nd.run.params.TotalRounds() == 0 {
		// Θ = 0: the scale loop is empty (paper constants at small Δ);
		// every node stays in V_IB for the finishing stages.
		ctx.Halt()
		return
	}
	nd.startIteration(ctx, 1)
}

// startIteration is phase 0: apply the ρₖ opt-out and broadcast a priority.
func (nd *node) startIteration(ctx *congest.Context, scale int) {
	p := nd.run.params
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
	slot, v := ctx.Round(), ctx.ID()
	run, p := nd.run, nd.run.params
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
			if nd.wins(v, inbox) {
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
		run.traces[v] = append(run.traces[v], ScaleRecord{
			Scale:       scale,
			DegIB:       nd.active.Count(ctx),
			HighDegNbrs: high,
			Bound:       p.BadLimit(scale),
		})
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
