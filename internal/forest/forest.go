// Package forest implements the distributed Nash-Williams forest
// decomposition of Barenboim and Elkin (PODC 2008), the substrate Lemma 3.8
// of the reproduced paper uses to process the shattered "bad" components:
// an H-partition peels low-degree nodes level by level, the level order
// orients every edge with out-degree at most (2+ε)·α, and each node's i-th
// out-edge lands in forest i, yielding at most ⌈(2+ε)α⌉ rooted forests in
// O(log n) CONGEST rounds.
//
// The implementation fixes ε = 2, i.e. the 4α-forest decomposition the
// paper's Lemma 3.8 quotes.
package forest

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// Epsilon is the slack in the peeling threshold (2+ε)·α.
const Epsilon = 2

// Decomposition is the collected output of a run.
type Decomposition struct {
	// Levels[v] is the H-partition level at which v was peeled (1-based).
	Levels []int
	// Parent[f][v] is v's parent in forest f, or -1. len(Parent) is the
	// number of forests (max out-degree of the level orientation).
	Parent [][]int
	// NumLevels is the number of peeling phases that were needed.
	NumLevels int
}

// NumForests returns the number of forests in the decomposition.
func (d *Decomposition) NumForests() int { return len(d.Parent) }

// Validate checks the decomposition against its graph: every edge in
// exactly one forest, every forest acyclic, and — when alpha is the
// arboricity bound the decomposition was built with — at most
// (2+ε)·alpha forests.
func (d *Decomposition) Validate(g *graph.Graph, alpha int) error {
	if len(d.Levels) != g.N() {
		return fmt.Errorf("forest: %d levels for %d vertices", len(d.Levels), g.N())
	}
	if max := (2 + Epsilon) * alpha; d.NumForests() > max {
		return fmt.Errorf("forest: %d forests exceeds (2+ε)α = %d", d.NumForests(), max)
	}
	covered := 0
	for f, parent := range d.Parent {
		var edges []graph.Edge
		for v, p := range parent {
			if p < 0 {
				continue
			}
			if !g.HasEdge(v, p) {
				return fmt.Errorf("forest %d: parent link (%d,%d) not a graph edge", f, v, p)
			}
			edges = append(edges, graph.Edge{U: v, V: p})
			covered++
		}
		fg, err := graph.New(g.N(), edges)
		if err != nil {
			return fmt.Errorf("forest %d: %w", f, err)
		}
		if !fg.IsForest() {
			return fmt.Errorf("forest %d: contains a cycle", f)
		}
		if fg.M() != len(edges) {
			return fmt.Errorf("forest %d: duplicate parent links", f)
		}
	}
	if covered != g.M() {
		return fmt.Errorf("forest: forests cover %d edges, graph has %d", covered, g.M())
	}
	return nil
}

// node is the per-vertex state machine of the H-partition program.
//
// Schedule (all nodes know n, so the schedule is lock-step):
//
//	phase rounds 1..L: nodes whose remaining degree is ≤ (2+ε)α adopt the
//	  current level and announce it; everyone tracks neighbors' levels.
//	round L+1: orient edges by (level, ID); assign forest indices to
//	  out-edges; tell each parent the index (so both endpoints know).
//	round L+2: collect incoming forest-index messages; halt.
//
// A peeled neighbor's level lives in its mark (congest.Context.Marks),
// above the active set's base.Removed bit, as level<<1 | Removed: levels
// are at most phases(n)+1, which is 33 for any n below 2³¹. A node's
// output word is its level; Decompose derives the parents from the levels.
type node struct {
	threshold int
	level     int
	active    base.ActiveSet
	numPhases int
	// out counts the out-edges orient has assigned a forest index.
	out int32
}

// phases returns L: with threshold (2+ε)α ≥ 4α, at least half the
// remaining nodes peel per phase on any arboricity-α graph, so ⌈log₂ n⌉+1
// phases always suffice; +1 more absorbs the n=1 edge case.
func phases(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n-1)) + 1
}

// New returns a factory for H-partition nodes with arboricity bound alpha.
func New(alpha, n int) func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{
			threshold: (2 + Epsilon) * alpha,
			numPhases: phases(n),
		})
	}
}

func (nd *node) Init(ctx *congest.Context) { nd.maybePeel(ctx, 1) }

// ExportState implements congest.Porter: a node's output is its level.
func (nd *node) ExportState() uint64 { return uint64(nd.level) }

// maybePeel adopts the given level if the remaining degree allows it.
func (nd *node) maybePeel(ctx *congest.Context, level int) {
	if nd.level != 0 {
		return
	}
	if nd.active.Count(ctx) <= nd.threshold {
		nd.level = level
		ctx.Broadcast(proto.Level{Value: int32(level)}.Wire())
	}
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	for _, m := range inbox {
		switch m.Wire.Kind {
		case proto.WireLevel:
			p, _ := proto.AsLevel(m.Wire)
			nd.active.Remove(ctx, m.From)
			if i := graph.Slot(ctx.Neighbors(), m.From); i >= 0 {
				ctx.Marks()[i] |= uint8(p.Value) << 1
			}
		case proto.WireForestEdge:
			// A child tells us which forest the connecting edge is in;
			// nothing to record on the parent side (the child owns the
			// parent pointer), but receiving it validates symmetry.
		}
	}
	r := ctx.Round()
	switch {
	case r < nd.numPhases:
		nd.maybePeel(ctx, r+1)
	case r == nd.numPhases:
		// Fallback: a node never peeled (caller under-estimated α) takes a
		// final catch-all level so the decomposition is still total.
		if nd.level == 0 {
			nd.level = nd.numPhases + 1
			ctx.Broadcast(proto.Level{Value: int32(nd.level)}.Wire())
		}
	case r == nd.numPhases+1:
		nd.orient(ctx)
	case r == nd.numPhases+2:
		ctx.Halt()
	}
}

// orient directs each incident edge by (level, ID) and assigns forest
// indices to out-edges.
func (nd *node) orient(ctx *congest.Context) {
	id, marks := ctx.ID(), ctx.Marks()
	for slot, w := range ctx.Neighbors() {
		wl := int(marks[slot] >> 1)
		if marks[slot]&base.Removed == 0 {
			// Neighbor peeled in the same round we did and its
			// announcement arrived; missing levels can only be same-round
			// peers whose message is in this round's inbox — handled in
			// Round before orient. Defensively treat as same level.
			wl = nd.level
		}
		if outEdge(nd.level, wl, id, int(w)) {
			ctx.SendSlot(slot, proto.ForestEdge{Forest: nd.out}.Wire())
			nd.out++
		}
	}
}

// outEdge reports whether the edge from v at level lv to w at level lw is
// one of v's out-edges: toward a strictly higher level, or the same level
// and a higher ID.
func outEdge(lv, lw, v, w int) bool { return lw > lv || (lw == lv && w > v) }

// Decompose runs the H-partition program on g with arboricity bound alpha
// and returns the decomposition plus run statistics. The nodes export
// their levels, and v's parent in forest f is v's f-th out-edge in row
// order under orient's rule. Every Level broadcast arrives before orient
// runs, the last being the fallback level sent in round L and read at the
// top of round L+1, so these are the parents every node chose. That needs
// reliable links; no caller runs forest under a fault plan.
func Decompose(g *graph.Graph, alpha int, opts congest.Options) (*Decomposition, congest.Result, error) {
	if opts.Driver == congest.DriverDistributed {
		return nil, congest.Result{}, errors.New("forest: Decompose does not run on the distributed driver: a fleet runs the program it was built with, and forest is not in the distrib registry")
	}
	if alpha < 1 {
		return nil, congest.Result{}, fmt.Errorf("forest: alpha must be >= 1, got %d", alpha)
	}
	r := congest.NewRunner(g, New(alpha, g.N()), opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	d := &Decomposition{Levels: make([]int, g.N())}
	for v := range d.Levels {
		d.Levels[v] = int(r.Export(v))
		d.NumLevels = max(d.NumLevels, d.Levels[v])
	}
	for v, lv := range d.Levels {
		f := 0
		for _, x := range g.Neighbors(v) {
			w := int(x)
			if !outEdge(lv, d.Levels[w], v, w) {
				continue
			}
			if f == len(d.Parent) {
				row := make([]int, g.N())
				for i := range row {
					row[i] = -1
				}
				d.Parent = append(d.Parent, row)
			}
			d.Parent[f][v] = w
			f++
		}
	}
	return d, res, nil
}
