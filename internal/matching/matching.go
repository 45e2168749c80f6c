// Package matching implements the randomized distributed maximal-matching
// algorithm in the style of Israeli and Itai (IPL 1986) — one of the three
// late-80s algorithms the reproduced paper's introduction credits with the
// O(log n) symmetry-breaking breakthrough (its reference [8]). MIS and
// maximal matching are sibling primitives: a maximal matching is exactly an
// MIS of the line graph, and the same shattering/read-k analysis questions
// arise for it.
//
// Each iteration costs three CONGEST rounds:
//
//	phase 0: process "matched" announcements; each still-active node
//	         flips sender/receiver; senders propose to one uniformly
//	         random active neighbor
//	phase 1: receivers accept their lowest-ID proposal
//	phase 2: accepted pairs announce "matched" and halt; nodes whose
//	         active neighborhood has emptied halt unmatched (all their
//	         edges are covered)
package matching

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// Unmatched marks a node with no partner in the result.
const Unmatched = -1

// node is the per-vertex state machine.
type node struct {
	active  base.ActiveSet
	partner int
	// sender records this iteration's role; proposal the target.
	sender   bool
	proposal int
	// accepted is the sender this receiver accepted this iteration.
	accepted int
}

// Partner returns the matched partner's ID, or Unmatched.
func (nd *node) Partner() int { return nd.partner }

// New returns a factory for matching nodes.
func New() func(v int) congest.Node {
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{partner: Unmatched, accepted: Unmatched, proposal: Unmatched})
	}
}

// Run computes a maximal matching of g: result[v] is v's partner or
// Unmatched. The matching is verified before return. Run reads each
// node's partner after the run, so it refuses the distributed driver.
func Run(g *graph.Graph, opts congest.Options) ([]int, congest.Result, error) {
	if opts.Driver == congest.DriverDistributed {
		return nil, congest.Result{}, errors.New("matching: Run reads each node's partner in process; the distributed driver returns one output word per vertex")
	}
	r := congest.NewRunner(g, New(), opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	partners := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		partners[v] = r.Node(v).(*node).Partner()
	}
	if err := Verify(g, partners); err != nil {
		return nil, res, err
	}
	return partners, res, nil
}

// Verify checks that partners encodes a maximal matching of g: partnership
// is symmetric, partners are adjacent, and no edge has two unmatched
// endpoints.
func Verify(g *graph.Graph, partners []int) error {
	if len(partners) != g.N() {
		return fmt.Errorf("matching: %d entries for %d vertices", len(partners), g.N())
	}
	for v, p := range partners {
		if p == Unmatched {
			continue
		}
		if p < 0 || p >= g.N() {
			return fmt.Errorf("matching: node %d has partner %d out of range", v, p)
		}
		if partners[p] != v {
			return fmt.Errorf("matching: asymmetric pair (%d,%d)", v, p)
		}
		if !g.HasEdge(v, p) {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", v, p)
		}
	}
	for _, e := range g.Edges() {
		if partners[e.U] == Unmatched && partners[e.V] == Unmatched {
			return fmt.Errorf("matching: edge (%d,%d) has both endpoints unmatched", e.U, e.V)
		}
	}
	return nil
}

// Size returns the number of matched pairs.
func Size(partners []int) int {
	n := 0
	for _, p := range partners {
		if p != Unmatched {
			n++
		}
	}
	return n / 2
}

func (nd *node) Init(ctx *congest.Context) { nd.startIteration(ctx) }

// startIteration is phase 0's work after removal processing.
func (nd *node) startIteration(ctx *congest.Context) {
	if nd.active.Count(ctx) == 0 {
		ctx.Halt() // every incident edge is covered by a matched neighbor
		return
	}
	nd.proposal = Unmatched
	nd.accepted = Unmatched
	nd.sender = ctx.RNG().Bool(0.5)
	if !nd.sender {
		return
	}
	// Propose to a uniformly random active neighbor, addressed by its slot.
	idx := ctx.RNG().Intn(nd.active.Count(ctx))
	i := 0
	slot := -1
	nd.active.Each(ctx, func(s, id int) {
		if i == idx {
			nd.proposal = id
			slot = s
		}
		i++
	})
	ctx.SendSlot(slot, proto.Flag{Kind: proto.KindPropose}.Wire())
}

func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 3 {
	case 1: // proposals arrived; receivers accept the lowest-ID sender
		if nd.sender {
			return
		}
		for _, m := range inbox { // inbox sorted by sender ID
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindPropose {
				nd.accepted = m.From
				ctx.Send(m.From, proto.Flag{Kind: proto.KindAccept}.Wire())
				break
			}
		}
	case 2: // accepts arrived; pairs commit and announce
		if nd.sender {
			for _, m := range inbox {
				if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindAccept && m.From == nd.proposal {
					nd.partner = m.From
					break
				}
			}
		} else if nd.accepted != Unmatched {
			nd.partner = nd.accepted
		}
		if nd.partner != Unmatched {
			ctx.Broadcast(proto.Flag{Kind: proto.KindMatched}.Wire())
			ctx.Halt()
		}
	case 0: // matched announcements; next iteration
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindMatched {
				nd.active.Remove(ctx, m.From)
			}
		}
		nd.startIteration(ctx)
	}
}
