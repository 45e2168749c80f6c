// Package metivier implements the randomized MIS algorithm of Métivier,
// Robson, Saheb-Djahromi and Zemmari (SIROCCO 2009): in each iteration every
// still-active node draws a uniform priority and joins the MIS if its
// priority beats every active neighbor's. The paper under reproduction
// calls this "the algorithm that does all the important hard work" inside
// the tree/bounded-arboricity MIS algorithms; it terminates in O(log n)
// rounds with high probability.
//
// Each iteration costs three CONGEST rounds:
//
//	phase 0: process removal announcements, broadcast a fresh priority
//	phase 1: compare priorities; local maxima broadcast "joined" and halt
//	phase 2: nodes with a joined neighbor broadcast "removed" and halt
//
// Priorities are 64 random bits with ties broken by node ID, an O(log n)-
// bit stand-in for the uniform reals of the analysis.
package metivier

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// node is the per-vertex state machine.
type node struct {
	status   base.Status
	priority uint64
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// New returns a factory for Métivier MIS nodes, for use with
// congest.NewRunner.
func New() func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{status: base.StatusActive})
	}
}

// Run executes the algorithm on g and returns the per-node statuses and
// run statistics.
func Run(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	r := congest.NewRunner(g, New(), opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

func (nd *node) Init(ctx *congest.Context) {
	nd.startIteration(ctx)
}

// startIteration draws and broadcasts a fresh priority (phase 0's send).
func (nd *node) startIteration(ctx *congest.Context) {
	nd.priority = ctx.RNG().Uint64()
	ctx.Broadcast(proto.Priority{Value: nd.priority, Competitive: true}.Wire())
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 3 {
	case 1: // phase 1: priorities arrived; am I the local maximum?
		if nd.winsAgainst(ctx.ID(), inbox) {
			nd.status = base.StatusInMIS
			ctx.Emit(int32(proto.KindJoined), int64(ctx.Round()/3))
			ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
			ctx.Halt()
		}
	case 2: // phase 2: join announcements arrived.
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				ctx.Emit(int32(proto.KindRemoved), int64(ctx.Round()/3))
				ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			}
		}
	case 0: // phase 0 of the next iteration: removals arrived; go again.
		nd.startIteration(ctx)
	}
}

// winsAgainst reports whether this node's (priority, ID) pair beats every
// priority in the inbox. A node with no active neighbors wins trivially.
func (nd *node) winsAgainst(id int, inbox []congest.Message) bool {
	for _, m := range inbox {
		p, ok := proto.AsPriority(m.Wire)
		if !ok {
			continue
		}
		if p.Value > nd.priority || (p.Value == nd.priority && m.From > id) {
			return false
		}
	}
	return true
}
