// Package ftmetivier implements a fault-tolerant variant of the Métivier
// et al. priority MIS algorithm, designed so that *safety survives any
// omission-style fault* the faultsim plans can inject — message loss
// (Bernoulli, link bursts, partitions), delivery delay, and vertex
// crash-stop/crash-restart — while liveness degrades gracefully instead
// of silently corrupting the output.
//
// The plain Métivier rule ("join if my priority beats every priority in
// this round's inbox") is unsafe under loss: if the two priority messages
// crossing an edge are both dropped, both endpoints can join, violating
// independence (experiment A4 measures exactly this). The variant here
// hardens the rule to be *conservative*:
//
//	a node joins the MIS in iteration i only if it received an
//	iteration-i priority from EVERY neighbor it still believes active,
//	and its own priority beats all of them (ties by ID).
//
// Three mechanisms make this safe under the full fault model:
//
//  1. Positive evidence: a missing priority blocks joining rather than
//     being treated as absence of competition. Two adjacent joiners in the
//     same iteration would each have had to receive — and beat — the
//     other's priority, which the total (priority, ID) order forbids.
//  2. Epoch tags: priorities carry their iteration (proto.EpochPriority),
//     so a delayed priority surfacing rounds later is discarded instead of
//     competing in the wrong iteration.
//  3. Monotone active views: a node removes a neighbor from its active
//     view only on explicit evidence (a Joined/Removed announcement, which
//     is safe to act on however stale). A neighbor that halted into the
//     MIS but whose announcement was lost stays in the view forever,
//     blocking the node from joining — losing liveness, never safety.
//
// Crashed neighbors block their survivors the same way, so after a
// crash-stop the affected region simply stops deciding. Undecided nodes
// give up after MaxIters iterations and halt with StatusActive; the
// faultsim checker scores them as coverage loss. On a reliable network
// the algorithm makes exactly the decisions of plain Métivier (the inbox
// then contains precisely the active neighbors' priorities), at the same
// three-rounds-per-iteration cadence.
package ftmetivier

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/proto"
)

// DefaultMaxIters bounds the iterations a node waits before giving up
// undecided. Métivier finishes in O(log n) iterations whp on a reliable
// network; the default leaves generous slack for fault-stalled regions to
// drain once a crash window closes.
const DefaultMaxIters = 64

// node is the per-vertex state machine. It keeps the current epoch's
// received priorities in its marks (congest.Context.Marks), beside the
// active view's base.Removed bit: heard on a neighbor's slot says its
// priority arrived, beats that the priority beats this node's own, ties
// broken by ID. The node's priority is fixed for the epoch, so the
// comparison can be made on arrival.
type node struct {
	status   base.Status
	priority uint64
	epoch    int32
	active   base.ActiveSet
	maxIters int
}

// The mark bits a current-epoch priority sets; startEpoch clears them.
const (
	heard uint8 = 1 << 1
	beats uint8 = 1 << 2
)

// ExportState is the node's output, its status (congest.Porter).
func (nd *node) ExportState() uint64 { return uint64(nd.status) }

// New returns a factory for fault-tolerant Métivier nodes with the given
// iteration budget (<= 0 means DefaultMaxIters), for use with
// congest.NewRunner.
func New(maxIters int) func(v int) congest.Node {
	if maxIters <= 0 {
		maxIters = DefaultMaxIters
	}
	var slab base.Slab[node]
	return func(int) congest.Node {
		return slab.New(node{status: base.StatusActive, maxIters: maxIters})
	}
}

// Run executes the algorithm on g with the default iteration budget and
// returns the per-node statuses and run statistics. Unlike the plain
// algorithms, a faulted run may legitimately finish with StatusActive
// nodes — score the output with faultsim.Check, not base.VerifyStatuses.
func Run(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	return RunBudget(g, 0, opts)
}

// RunBudget is Run with an explicit per-node iteration budget.
func RunBudget(g *graph.Graph, maxIters int, opts congest.Options) ([]base.Status, congest.Result, error) {
	return base.Run(g, New(maxIters), opts)
}

func (nd *node) Init(ctx *congest.Context) { nd.startEpoch(ctx, 0) }

// startEpoch forgets the last epoch's priorities and draws and broadcasts
// a fresh tagged one.
func (nd *node) startEpoch(ctx *congest.Context, epoch int32) {
	nd.epoch = epoch
	nd.priority = ctx.RNG().Uint64()
	marks := ctx.Marks()
	for i := range marks {
		marks[i] &^= heard | beats
	}
	ctx.Broadcast(proto.EpochPriority{Value: nd.priority, Epoch: epoch}.Wire())
}

// hear records neighbor w's current-epoch priority p on w's slot.
func (nd *node) hear(ctx *congest.Context, w int, p uint64) {
	i := graph.Slot(ctx.Neighbors(), w)
	if i < 0 {
		return
	}
	mark := heard
	if p > nd.priority || (p == nd.priority && w > ctx.ID()) {
		mark |= beats
	}
	ctx.Marks()[i] |= mark
}

// Round follows Métivier's three-round cadence (priorities, joins,
// removals), but every announcement kind is handled in every round:
// under delay faults a Joined or Removed can surface in any phase, and
// both are safe to act on no matter how stale.
func (nd *node) Round(ctx *congest.Context, inbox []congest.Message) {
	for _, m := range inbox {
		switch m.Wire.Kind {
		case proto.WireEpochPriority:
			if p, _ := proto.AsEpochPriority(m.Wire); p.Epoch == nd.epoch {
				nd.hear(ctx, m.From, p.Value)
			}
		case proto.WireFlag:
			p, _ := proto.AsFlag(m.Wire)
			switch p.Kind {
			case proto.KindJoined:
				// A neighbor is in the MIS: we are dominated, whenever we
				// learn it.
				nd.status = base.StatusDominated
				ctx.Emit(int32(proto.KindRemoved), int64(nd.epoch))
				ctx.Broadcast(proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			case proto.KindRemoved:
				nd.active.Remove(ctx, m.From)
			}
		}
	}
	switch ctx.Round() % 3 {
	case 1: // evaluation phase: do I hold positive evidence of winning?
		if nd.wins(ctx) {
			nd.status = base.StatusInMIS
			ctx.Emit(int32(proto.KindJoined), int64(nd.epoch))
			ctx.Broadcast(proto.Flag{Kind: proto.KindJoined}.Wire())
			ctx.Halt()
		}
	case 0: // next iteration: redraw, or give up undecided at the budget.
		next := nd.epoch + 1
		if int(next) >= nd.maxIters {
			ctx.Halt()
			return
		}
		nd.startEpoch(ctx, next)
	}
}

// wins reports whether this node received a current-epoch priority from
// every neighbor in its active view and beat them all (ties by ID): every
// mark without base.Removed is heard and not beaten. A node whose active
// view is empty wins trivially.
func (nd *node) wins(ctx *congest.Context) bool {
	for _, m := range ctx.Marks() {
		if m&base.Removed == 0 && m&(heard|beats) != heard {
			return false
		}
	}
	return true
}
