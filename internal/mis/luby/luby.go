// Package luby implements the two classical randomized MIS algorithms from
// Luby's 1986 paper, the O(log n)-round baselines the reproduced paper
// measures progress against.
//
// Algorithm A: each active node draws an integer priority uniformly from
// {0, ..., n⁴-1} and joins the MIS when its priority (with ID tie-break)
// beats all active neighbors. The paper under reproduction notes this is
// "essentially identical to the algorithm of Métivier et al.", differing
// only in the priority range.
//
// Algorithm B (what the literature usually calls "Luby's algorithm"): each
// active node marks itself with probability 1/(2d(v)), where d(v) is its
// current active degree; when two marked nodes are adjacent, the lower-
// degree one (ID tie-break) unmarks; surviving marked nodes join.
//
// Both use three CONGEST rounds per iteration.
package luby

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// nodeA runs Algorithm A.
type nodeA struct {
	status   base.Status
	priority uint64
	rangeMax uint64
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *nodeA) ExportState() uint64 { return uint64(nd.status) }

// NewA returns a factory for Algorithm A on an n-vertex graph (priorities
// drawn from {0..n⁴-1}; collisions are real and broken by ID, exactly the
// regime Luby analyzed).
func NewA(n int) func(v int) congest.Node {
	// n⁴ as uint64 saturates for n >= 2^16; saturation only widens the
	// range, which preserves the algorithm's guarantees.
	r := uint64(1)
	for i := 0; i < 4; i++ {
		next := r * uint64(n)
		if n != 0 && next/uint64(n) != r {
			r = ^uint64(0)
			break
		}
		r = next
	}
	if r == 0 {
		r = 1
	}
	var slab base.Slab[nodeA]
	return func(int) congest.Node {
		return slab.New(nodeA{status: base.StatusActive, rangeMax: r})
	}
}

// RunA executes Algorithm A on g.
func RunA(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, NewA(g.N()), opts)
}

func (nd *nodeA) Init(ctx *congest.Context) { nd.start(ctx) }

func (nd *nodeA) start(ctx *congest.Context) {
	nd.priority = ctx.RNG().Uint64() % nd.rangeMax
	ctx.Broadcast(proto.Priority{Value: nd.priority, Competitive: true}.Wire())
}

func (nd *nodeA) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 3 {
	case 1:
		win := true
		for _, m := range inbox {
			if p, ok := proto.AsPriority(m.Wire); ok {
				if p.Value > nd.priority || (p.Value == nd.priority && m.From > ctx.ID()) {
					win = false
					break
				}
			}
		}
		if win {
			nd.status = base.StatusInMIS
			ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
			ctx.Halt()
		}
	case 2:
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			}
		}
	case 0:
		nd.start(ctx)
	}
}

// nodeB runs Algorithm B.
type nodeB struct {
	status base.Status
	active base.ActiveSet
	marked bool
	myDeg  int
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *nodeB) ExportState() uint64 { return uint64(nd.status) }

// NewB returns a factory for Algorithm B.
func NewB() func(v int) congest.Node {
	var slab base.Slab[nodeB]
	return func(int) congest.Node {
		return slab.New(nodeB{status: base.StatusActive})
	}
}

// RunB executes Algorithm B on g.
func RunB(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, NewB(), opts)
}

func (nd *nodeB) Init(ctx *congest.Context) { nd.start(ctx) }

// start is phase 0: decide whether to mark, and announce marks (with the
// degree needed for conflict resolution).
func (nd *nodeB) start(ctx *congest.Context) {
	nd.myDeg = nd.active.Count(ctx)
	if nd.myDeg == 0 {
		nd.status = base.StatusInMIS
		ctx.Halt()
		return
	}
	nd.marked = ctx.RNG().Bool(1 / (2 * float64(nd.myDeg)))
	if nd.marked {
		ctx.Broadcast(proto.Degree{Value: int32(nd.myDeg)}.Wire())
	}
}

func (nd *nodeB) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 3 {
	case 1: // conflict resolution among marked nodes
		if !nd.marked {
			return
		}
		for _, m := range inbox {
			d, ok := proto.AsDegree(m.Wire)
			if !ok || !nd.active.Contains(ctx, m.From) {
				continue
			}
			// The lower-degree endpoint unmarks; ties break toward the
			// lower ID unmarking.
			if int(d.Value) > nd.myDeg || (int(d.Value) == nd.myDeg && m.From > ctx.ID()) {
				nd.marked = false
				break
			}
		}
		if nd.marked {
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
	case 0: // removals arrived; next iteration
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindRemoved {
				nd.active.Remove(ctx, m.From)
			}
		}
		nd.start(ctx)
	}
}
