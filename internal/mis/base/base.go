// Package base holds the small pieces shared by every MIS node program:
// the node-status vocabulary, the slab program factories carve their
// nodes from, the active-neighbor tracker, and helpers for reading results
// out of a finished CONGEST run.
package base

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Status is a node's final (or current) classification.
type Status int

// Node statuses. They start at 1 so an uninitialized status is detectably
// invalid.
const (
	// StatusActive means the node is still undecided.
	StatusActive Status = iota + 1
	// StatusInMIS means the node joined the independent set.
	StatusInMIS
	// StatusDominated means a neighbor joined the independent set.
	StatusDominated
	// StatusBad means the node was placed in the bad set B by the core
	// algorithm (Algorithm 1 step 2(b)) and awaits the finishing stage.
	StatusBad
)

// String renders a status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusInMIS:
		return "in-mis"
	case StatusDominated:
		return "dominated"
	case StatusBad:
		return "bad"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Statuses reads the final status of every node from a finished runner:
// each MIS program's output word (congest.Runner.Export) is its status. It
// panics if a node program does not implement congest.Porter (a wiring
// bug).
func Statuses(r *congest.Runner, n int) []Status {
	out := make([]Status, n)
	for v := range out {
		out[v] = Status(r.Export(v))
	}
	return out
}

// MISSet converts statuses to the boolean set representation the graph
// verifier consumes.
func MISSet(statuses []Status) []bool {
	set := make([]bool, len(statuses))
	for v, s := range statuses {
		set[v] = s == StatusInMIS
	}
	return set
}

// Slab hands out a program factory's nodes from chunks it allocates, so
// building n nodes costs a few dozen allocations, not n. Chunks start at
// slabFirstChunk nodes and double up to slabMaxChunk: a factory serving a
// Runner over a handful of vertices (a dynamic-MIS repair region) carves
// one small chunk, one serving 2^17 vertices 135 chunks. A Slab never
// reuses a node, so one factory may serve several Runners or shard
// workers (an in-process fleet's, say) without two of them sharing one; a
// chunk stays live while any of its nodes is. The zero value is ready to
// use. A Slab is not safe for concurrent use, which the engine's factory
// contract allows: congest.NewRunner and congest.NewShardWorker call a
// factory from one goroutine.
type Slab[T any] struct {
	free []T // the current chunk's nodes not yet handed out
	size int // the current chunk's length
}

const (
	slabFirstChunk = 8
	slabMaxChunk   = 1024
)

// New returns a pointer to a fresh node holding v.
func (s *Slab[T]) New(v T) *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, slabFirstChunk), slabMaxChunk)
		s.free = make([]T, s.size)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = v
	return p
}

// Removed is the mark bit (congest.Context.Marks) an ActiveSet sets on a
// neighbor's slot when the neighbor announces removal. A program that
// keeps an ActiveSet may use the mark's other seven bits.
const Removed uint8 = 1

// ActiveSet tracks which neighbors of a node are still active. MIS node
// programs use it to maintain Γ_IB(v) and deg_IB(v) (the paper's notation
// for a node's neighbors and degree restricted to active nodes) as
// neighbors announce removal. The removed flags are the Removed bit of
// the vertex's engine-owned marks, so the set holds only its removal
// count: a node keeps it by value, and its zero value has every neighbor
// active. Every method takes the Context of the node's own call.
type ActiveSet struct {
	removed int32
}

// Count returns the number of active neighbors (deg_IB).
func (s *ActiveSet) Count(ctx *congest.Context) int { return ctx.Degree() - int(s.removed) }

// Contains reports whether neighbor id is still active.
func (s *ActiveSet) Contains(ctx *congest.Context, id int) bool {
	i := graph.Slot(ctx.Neighbors(), id)
	return i >= 0 && ctx.Marks()[i]&Removed == 0
}

// Remove marks neighbor id inactive. Removing an unknown or already
// inactive neighbor is a no-op (duplicate announcements are harmless).
func (s *ActiveSet) Remove(ctx *congest.Context, id int) {
	if i := graph.Slot(ctx.Neighbors(), id); i >= 0 {
		if m := &ctx.Marks()[i]; *m&Removed == 0 {
			*m |= Removed
			s.removed++
		}
	}
}

// Each calls f for every active neighbor in increasing ID order, with the
// neighbor's slot in Neighbors(), which is the address Context.SendSlot
// takes, so a program can message it without a neighbor search.
func (s *ActiveSet) Each(ctx *congest.Context, f func(slot, id int)) {
	marks := ctx.Marks()
	for i, id := range ctx.Neighbors() {
		if marks[i]&Removed == 0 {
			f(i, int(id))
		}
	}
}

// VerifyStatuses checks that statuses encode a complete, consistent MIS
// outcome for g: no node still active, every dominated node has an in-MIS
// neighbor, and the in-MIS set passes the graph verifier.
func VerifyStatuses(g *graph.Graph, statuses []Status) error {
	for v, s := range statuses {
		switch s {
		case StatusInMIS, StatusDominated:
		case StatusActive, StatusBad:
			return fmt.Errorf("base: node %d finished with status %v", v, s)
		default:
			return fmt.Errorf("base: node %d has invalid status %d", v, int(s))
		}
	}
	for v, s := range statuses {
		if s != StatusDominated {
			continue
		}
		ok := false
		for _, w := range g.Neighbors(v) {
			if statuses[w] == StatusInMIS {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("base: node %d dominated but no neighbor in MIS", v)
		}
	}
	return g.VerifyMIS(MISSet(statuses))
}
