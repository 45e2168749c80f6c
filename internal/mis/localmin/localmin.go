// Package localmin implements the deterministic distributed greedy MIS:
// in each two-round iteration, every undecided node whose ID is smaller
// than all undecided neighbors' IDs joins the MIS. Its round complexity is
// bounded by the length of the longest decreasing-ID path, hence by the
// component size — which is exactly why it is the right "deterministic
// algorithm [for] each component ... since each component is small"
// (Section 2.1 of the reproduced paper) once shattering has bounded the
// bad components to O(Δ⁶·log_Δ n) nodes.
package localmin

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// node is the per-vertex state machine.
type node struct {
	status base.Status
	active base.ActiveSet
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// New returns a factory for local-min MIS nodes.
func New() func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{status: base.StatusActive})
	}
}

// Run executes the algorithm on g.
func Run(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, New(), opts)
}

func (nd *node) Init(ctx *congest.Context) { nd.tryJoin(ctx) }

// tryJoin joins the MIS when this node's ID is the minimum among its
// still-undecided neighborhood. IDs are known to neighbors a priori in
// CONGEST, so no priority exchange is needed — only removal announcements.
func (nd *node) tryJoin(ctx *congest.Context) {
	min := true
	nd.active.Each(ctx, func(_, id int) {
		if id < ctx.ID() {
			min = false
		}
	})
	if min {
		nd.status = base.StatusInMIS
		ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
		ctx.Halt()
	}
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 2 {
	case 1: // join announcements
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			}
		}
	case 0: // removal announcements; next iteration
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindRemoved {
				nd.active.Remove(ctx, m.From)
			}
		}
		nd.tryJoin(ctx)
	}
}
