// Package colevishkin implements the deterministic Cole-Vishkin (1986)
// coloring pipeline on rooted forests, and the standard MIS extraction from
// the resulting 3-coloring. The reproduced paper uses it (Lemma 3.8) to
// finish off the small "bad" components: a forest decomposition gives each
// forest an orientation, Cole-Vishkin 3-colors each forest in O(log* n)
// rounds, and color classes are then swept into an MIS.
//
// The schedule is fully deterministic and known in advance from n:
//
//	rounds 1..T          color reduction: IDs → <6 colors (T = O(log* n))
//	rounds T+1..T+6      three shift-down+recolor steps: 6 → 3 colors
//	rounds T+7..T+12     three color-class sweeps: 3-coloring → MIS
//
// Every message is a single color of at most 64 bits, comfortably CONGEST.
package colevishkin

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// ReductionRounds returns T, the number of Cole-Vishkin iterations needed
// to bring n distinct initial colors below 6. It is log*-ish: 5 covers
// every feasible n.
func ReductionRounds(n int) int {
	space := n
	if space < 2 {
		space = 2
	}
	t := 0
	for space > 6 {
		// Colors in [0, space) have bitlen(space-1) bits; one iteration
		// maps them into [0, 2*bitlen(space-1)).
		space = 2 * bits.Len(uint(space-1))
		t++
	}
	return t
}

// node is the per-vertex state machine.
type node struct {
	status base.Status
	parent int // -1 for roots
	color  uint64
	// preShift remembers the color held before the current shift-down so
	// the recolor step knows its children's (uniform) new color.
	preShift uint64
	total    int // T, cached
}

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// Color returns the node's final color; exported for the coloring tests.
func (nd *node) Color() uint64 { return nd.color }

// New returns a factory for Cole-Vishkin nodes on an n-vertex forest.
// parent[v] is v's parent or -1 for roots.
func New(parent []int, n int) func(v int) congest.Node {
	t := ReductionRounds(n)
	var slab base.Slab[node]
	return func(v int) congest.Node {
		return slab.New(node{
			status: base.StatusActive,
			parent: parent[v],
			color:  uint64(v),
			total:  t,
		})
	}
}

// Run executes the pipeline on a forest g with the given parent map and
// returns per-node statuses (a valid MIS of g) plus run statistics. It
// rejects inputs that are not forests or whose parent map does not match
// the graph.
func Run(g *graph.Graph, parent []int, opts congest.Options) ([]base.Status, congest.Result, error) {
	if err := validate(g, parent); err != nil {
		return nil, congest.Result{}, err
	}
	return base.Run(g, New(parent, g.N()), opts)
}

// Colors runs only through the coloring stages and returns the 3-coloring
// (values 0..2). Used by the forest-decomposition finisher, which sweeps
// several forests' colorings jointly, and by the coloring experiments. It
// reads each node's colour after the run, so it refuses the distributed
// driver.
func Colors(g *graph.Graph, parent []int, opts congest.Options) ([]uint64, congest.Result, error) {
	if opts.Driver == congest.DriverDistributed {
		return nil, congest.Result{}, errors.New("colevishkin: Colors reads each node's colour in process; the distributed driver returns one output word per vertex")
	}
	if err := validate(g, parent); err != nil {
		return nil, congest.Result{}, err
	}
	r := congest.NewRunner(g, New(parent, g.N()), opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	colors := make([]uint64, g.N())
	for v := 0; v < g.N(); v++ {
		colors[v] = r.Node(v).(*node).Color()
	}
	return colors, res, nil
}

func validate(g *graph.Graph, parent []int) error {
	if len(parent) != g.N() {
		return fmt.Errorf("colevishkin: parent map has %d entries for %d vertices", len(parent), g.N())
	}
	if !g.IsForest() {
		return fmt.Errorf("colevishkin: input graph is not a forest")
	}
	links := 0
	for v, p := range parent {
		if p < 0 {
			continue
		}
		if p == v || p >= g.N() {
			return fmt.Errorf("colevishkin: bad parent %d for vertex %d", p, v)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("colevishkin: parent link (%d,%d) is not a graph edge", v, p)
		}
		links++
	}
	if links != g.M() {
		return fmt.Errorf("colevishkin: %d parent links but %d edges", links, g.M())
	}
	return nil
}

func (nd *node) Init(ctx *congest.Context) {
	// When n <= 6 the reduction stage is empty (T = 0): IDs already form a
	// <6 coloring and the schedule proceeds straight to shift-down.
	ctx.Broadcast(proto.Color{Value: nd.color}.Wire())
}

// parentColor extracts the color sent by nd's parent this round, if any.
func (nd *node) parentColor(inbox []congest.Message) (uint64, bool) {
	if nd.parent < 0 {
		return 0, false
	}
	for _, m := range inbox {
		if m.From == nd.parent {
			if c, ok := proto.AsColor(m.Wire); ok {
				return c.Value, true
			}
		}
	}
	return 0, false
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	t := nd.total
	r := ctx.Round()
	switch {
	case r <= t:
		nd.reduceStep(ctx, inbox)
	case r <= t+6:
		step := r - t - 1 // 0..5: three (shift, recolor) pairs
		if step%2 == 0 {
			nd.shiftDown(ctx, inbox)
		} else {
			nd.recolor(ctx, inbox, uint64(5-step/2)) // eliminate colors 5,4,3
		}
	case r <= t+12:
		step := r - t - 7 // 0..5: three (join, absorb) pairs
		if step%2 == 0 {
			nd.joinTurn(ctx, uint64(step/2))
		} else {
			nd.absorbJoins(ctx, inbox, r == t+12)
		}
	}
}

// reduceStep performs one Cole-Vishkin iteration: find the lowest bit where
// my color differs from my parent's, and adopt 2*index + myBit. Roots use a
// fictive parent differing at bit 0.
func (nd *node) reduceStep(ctx *congest.Context, inbox []congest.Message) {
	pc, ok := nd.parentColor(inbox)
	if !ok {
		pc = nd.color ^ 1
	}
	diff := nd.color ^ pc
	i := uint64(bits.TrailingZeros64(diff))
	b := (nd.color >> i) & 1
	nd.color = 2*i + b
	ctx.Broadcast(proto.Color{Value: nd.color}.Wire())
}

// shiftDown makes each vertex adopt its parent's color (roots rotate),
// which leaves every vertex's children monochromatic — the precondition
// for safe parallel recoloring.
func (nd *node) shiftDown(ctx *congest.Context, inbox []congest.Message) {
	nd.preShift = nd.color
	if pc, ok := nd.parentColor(inbox); ok {
		nd.color = pc
	} else {
		// Roots pick the smallest color in {0,1,2} different from their
		// own. Rotating within all six colors would risk reintroducing a
		// color a previous recolor pass already eliminated.
		if nd.color == 0 {
			nd.color = 1
		} else {
			nd.color = 0
		}
	}
	ctx.Broadcast(proto.Color{Value: nd.color}.Wire())
}

// recolor moves every vertex of color c into {0,1,2}, avoiding its parent's
// color and its children's (uniform, = preShift) color.
func (nd *node) recolor(ctx *congest.Context, inbox []congest.Message, c uint64) {
	if nd.color == c {
		pc, hasParent := nd.parentColor(inbox)
		for candidate := uint64(0); candidate < 3; candidate++ {
			if hasParent && candidate == pc {
				continue
			}
			if candidate == nd.preShift {
				continue
			}
			nd.color = candidate
			break
		}
	}
	ctx.Broadcast(proto.Color{Value: nd.color}.Wire())
}

// joinTurn lets color class c join the MIS (if not already dominated).
func (nd *node) joinTurn(ctx *congest.Context, c uint64) {
	if nd.status == base.StatusActive && nd.color == c {
		nd.status = base.StatusInMIS
		ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
	}
}

// absorbJoins marks nodes dominated by a freshly joined neighbor; on the
// final sweep everyone halts.
func (nd *node) absorbJoins(ctx *congest.Context, inbox []congest.Message, last bool) {
	if nd.status == base.StatusActive {
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				break
			}
		}
	}
	if last {
		ctx.Halt()
	}
}
