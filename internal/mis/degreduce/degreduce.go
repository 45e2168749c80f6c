// Package degreduce implements the degree-reduction preprocessing the
// paper's §3.3 invokes (Barenboim et al., Theorem 7.2): when Δ is large,
// run O(√(log n · log log n)) priority iterations first; with high
// probability every surviving node then has degree at most
// α·2^√(log n·log log n), after which ArbMIS runs with the reduced Δ.
//
// Like the source theorem, the mechanism is simply the priority process
// run for a fixed budget: high-degree nodes have many independent chances
// of a neighbor joining the MIS, so they are eliminated first, and the
// budget is chosen so the surviving degree matches the target whp. The
// repository measures the resulting degree-vs-iterations curve in
// experiment E13.
package degreduce

import (
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// Iterations returns the preprocessing budget c·√(log₂ n · log₂ log₂ n)
// for the given constant multiplier.
func Iterations(n int, c float64) int {
	if n < 4 {
		return 1
	}
	l := math.Log2(float64(n))
	t := int(math.Ceil(c * math.Sqrt(l*math.Log2(l))))
	if t < 1 {
		t = 1
	}
	return t
}

// TargetDegree returns the reduced-degree target α·2^√(log₂ n·log₂ log₂ n).
func TargetDegree(n, alpha int) float64 {
	if n < 4 {
		return float64(alpha)
	}
	l := math.Log2(float64(n))
	return float64(alpha) * math.Pow(2, math.Sqrt(l*math.Log2(l)))
}

// node runs the Métivier priority process for a fixed number of
// iterations, then stops with whatever is left active.
type node struct {
	status   base.Status
	priority uint64
	budget   int // iterations remaining after the current one
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// New returns a factory running exactly iters priority iterations.
func New(iters int) func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{status: base.StatusActive, budget: iters})
	}
}

// Run executes the preprocessing on g: statuses are StatusInMIS,
// StatusDominated, or StatusActive (survivor). Survivors plus the residual
// graph are what the caller feeds to the main algorithm.
func Run(g *graph.Graph, iters int, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, New(iters), opts)
}

// Survivors extracts the still-active vertices and their induced subgraph.
func Survivors(g *graph.Graph, statuses []base.Status) ([]int, *graph.Graph, error) {
	var alive []int
	for v, s := range statuses {
		if s == base.StatusActive {
			alive = append(alive, v)
		}
	}
	if len(alive) == 0 {
		return nil, graph.MustNew(0, nil), nil
	}
	sub, _, err := g.InducedSubgraph(alive)
	if err != nil {
		return nil, nil, err
	}
	return alive, sub, nil
}

func (nd *node) Init(ctx *congest.Context) {
	if nd.budget <= 0 {
		ctx.Halt()
		return
	}
	nd.start(ctx)
}

func (nd *node) start(ctx *congest.Context) {
	nd.priority = ctx.RNG().Uint64()
	ctx.Broadcast(proto.Priority{Value: nd.priority, Competitive: true}.Wire())
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
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
		nd.budget--
		if nd.budget <= 0 {
			ctx.Halt() // survivor: stays StatusActive
		}
	case 0:
		nd.start(ctx)
	}
}
