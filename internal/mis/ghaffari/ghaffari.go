// Package ghaffari implements the MIS algorithm of Ghaffari (SODA 2016),
// the algorithm the reproduced paper cites as dominating its round
// complexity. Each node maintains an explicit desire-level p(v), initially
// 1/2; in each iteration v marks itself with probability p(v), joins the
// MIS when no neighbor is simultaneously marked, and updates p(v) from the
// aggregate desire of its neighborhood:
//
//	d(v) = Σ_{u ∈ N(v)} p(u)
//	p(v) ← p(v)/2        if d(v) ≥ 2
//	p(v) ← min(2p(v), ½) otherwise
//
// Desire levels are always dyadic, so they travel exactly as 32-bit fixed-
// point values (p·2³⁰). One iteration costs four CONGEST rounds:
//
//	phase 0: process removals; broadcast Desire(p)
//	phase 1: compute d(v); update p; decide mark; broadcast mark flags
//	phase 2: marked nodes with no marked neighbor join and announce
//	phase 3: nodes with a joined neighbor announce removal and halt
package ghaffari

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// fixedOne is 1.0 in the 2^30 fixed-point scale of proto.Desire.
const fixedOne = uint64(1) << 30

// minP30 floors the desire level at 2⁻³⁰ so it stays representable; in any
// graph this simulator can hold, p never actually falls that far.
const minP30 = uint32(1)

// node is the per-vertex state machine.
type node struct {
	status base.Status
	active base.ActiveSet
	p30    uint32
	marked bool
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// New returns a factory for Ghaffari MIS nodes.
func New() func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{status: base.StatusActive, p30: uint32(fixedOne / 2)})
	}
}

// Run executes the algorithm on g.
func Run(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, New(), opts)
}

func (nd *node) Init(ctx *congest.Context) { nd.start(ctx) }

// start is phase 0: broadcast the current desire level.
func (nd *node) start(ctx *congest.Context) {
	if nd.active.Count(ctx) == 0 {
		nd.status = base.StatusInMIS
		ctx.Halt()
		return
	}
	ctx.Broadcast(proto.Desire{P30: nd.p30}.Wire())
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 4 {
	case 1: // desires arrived: update p, decide mark
		var sum uint64
		for _, m := range inbox {
			if d, ok := proto.AsDesire(m.Wire); ok {
				sum += uint64(d.P30)
			}
		}
		mark := ctx.RNG().Bool(float64(nd.p30) / float64(fixedOne))
		// Desire update uses this iteration's d(v); the mark decision used
		// this iteration's p, drawn above before the update.
		if sum >= 2*fixedOne {
			nd.p30 /= 2
			if nd.p30 < minP30 {
				nd.p30 = minP30
			}
		} else {
			nd.p30 *= 2
			if nd.p30 > uint32(fixedOne/2) {
				nd.p30 = uint32(fixedOne / 2)
			}
		}
		nd.marked = mark
		if mark {
			ctx.Broadcast(proto.Flag{Kind: proto.KindMarked}.Wire())
		}
	case 2: // marks arrived: unconflicted marked nodes join
		if !nd.marked {
			return
		}
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindMarked {
				return // a neighbor is marked too; nobody joins here
			}
		}
		nd.status = base.StatusInMIS
		ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
		ctx.Halt()
	case 3: // join announcements
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			}
		}
	case 0: // removals arrived: next iteration
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindRemoved {
				nd.active.Remove(ctx, m.From)
			}
		}
		nd.start(ctx)
	}
}
