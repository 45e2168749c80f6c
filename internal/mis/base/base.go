// Package base holds the small pieces shared by every MIS node program:
// the node-status vocabulary, the slab program factories carve their
// nodes from, the active-neighbor trackers (per vertex and run-wide), and
// helpers for reading results out of a finished CONGEST run.
package base

import (
	"fmt"
	"sort"

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

// Membership is implemented by node programs whose output is a Status.
type Membership interface {
	Status() Status
}

// Statuses reads the final status of every node from a finished runner.
// It panics if a node program does not implement Membership (a wiring bug).
func Statuses(r *congest.Runner, n int) []Status {
	out := make([]Status, n)
	for v := 0; v < n; v++ {
		m, ok := r.Node(v).(Membership)
		if !ok {
			panic(fmt.Sprintf("base: node %d (%T) does not implement Membership", v, r.Node(v)))
		}
		out[v] = m.Status()
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
// reuses a node, so one factory may serve several Runners (a fleet's
// mirror runs, say) without two of them sharing one; a chunk stays live
// while any of its nodes is. The zero value is ready to use. A Slab is not
// safe for concurrent use, which the engine's factory contract allows:
// congest.NewRunner and congest.NewShardWorker call a factory from one
// goroutine.
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

// ActiveSet tracks which neighbors of a node are still active. MIS node
// programs use it to maintain deg_IB(v) (the paper's notation for a node's
// degree restricted to active nodes) as neighbors announce removal. A node
// holds it by value, so its only allocation is the removed flags.
type ActiveSet struct {
	ids     []int  // sorted neighbor IDs
	removed []bool // removed[i]: ids[i] announced removal
	count   int
}

// NewActiveSet starts with every listed neighbor active. The ids slice must
// be sorted (graph adjacency lists are); it is not copied.
func NewActiveSet(ids []int) ActiveSet {
	return ActiveSet{
		ids:     ids,
		removed: make([]bool, len(ids)),
		count:   len(ids),
	}
}

// Count returns the number of active neighbors (deg_IB).
func (s *ActiveSet) Count() int { return s.count }

// Contains reports whether neighbor id is still active.
func (s *ActiveSet) Contains(id int) bool {
	i := slotOf(s.ids, id)
	return i >= 0 && !s.removed[i]
}

// Remove marks neighbor id inactive. Removing an unknown or already
// inactive neighbor is a no-op (duplicate announcements are harmless).
func (s *ActiveSet) Remove(id int) {
	i := slotOf(s.ids, id)
	if i >= 0 && !s.removed[i] {
		s.removed[i] = true
		s.count--
	}
}

// Each calls f for every active neighbor in increasing ID order.
func (s *ActiveSet) Each(f func(id int)) {
	for i, id := range s.ids {
		if !s.removed[i] {
			f(id)
		}
	}
}

// EachSlot calls f for every active neighbor in increasing ID order,
// passing the neighbor's slot in the ids list alongside its ID. When the
// set was built from congest.Context.Neighbors (the universal pattern in
// this repo), slot is exactly the argument Context.SendSlot expects, so
// programs can address messages without any neighbor search.
func (s *ActiveSet) EachSlot(f func(slot, id int)) {
	for i, id := range s.ids {
		if !s.removed[i] {
			f(i, id)
		}
	}
}

// ActiveNeighbors is an ActiveSet for every vertex of a graph at once, in
// two pointer-free slices: one removed flag per adjacency entry, aligned
// with the graph's CSR (v's flags start at g.Offset(v), in Neighbors(v)
// order), and deg_IB per vertex. A program that keeps one per run makes
// three allocations where per-vertex ActiveSets make 2n. Every call names
// the vertex whose row it reads or writes, so shard workers may update
// their own vertices concurrently.
type ActiveNeighbors struct {
	g       *graph.Graph
	removed []bool  // removed[g.Offset(v)+i]: Neighbors(v)[i] announced removal
	count   []int32 // count[v] is deg_IB(v)
}

// NewActiveNeighbors starts with every vertex's every neighbor active.
func NewActiveNeighbors(g *graph.Graph) *ActiveNeighbors {
	count := make([]int32, g.N())
	for v := range count {
		count[v] = int32(g.Degree(v))
	}
	return &ActiveNeighbors{g: g, removed: make([]bool, 2*g.M()), count: count}
}

// Count returns v's number of active neighbors (deg_IB(v)).
func (a *ActiveNeighbors) Count(v int) int { return int(a.count[v]) }

// Contains reports whether neighbor id of v is still active.
func (a *ActiveNeighbors) Contains(v, id int) bool {
	i := slotOf(a.g.Neighbors(v), id)
	return i >= 0 && !a.removed[a.g.Offset(v)+i]
}

// Remove marks neighbor id of v inactive. As with ActiveSet.Remove, an
// unknown or already inactive neighbor is a no-op.
func (a *ActiveNeighbors) Remove(v, id int) {
	i := slotOf(a.g.Neighbors(v), id)
	if i < 0 {
		return
	}
	if f := &a.removed[a.g.Offset(v)+i]; !*f {
		*f = true
		a.count[v]--
	}
}

// slotOf returns id's index in the sorted row, or -1 if it is absent.
func slotOf(row []int, id int) int {
	i := sort.SearchInts(row, id)
	if i < len(row) && row[i] == id {
		return i
	}
	return -1
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
