package dynmis

import (
	"fmt"
	"math"
)

// Op enumerates the update kinds a stream can carry. Values start at 1 so
// a zero-valued update is detectably invalid.
type Op uint8

// Update kinds.
const (
	// OpInsertEdge adds the edge {U, V}.
	OpInsertEdge Op = iota + 1
	// OpRemoveEdge deletes the edge {U, V}.
	OpRemoveEdge
	// OpInsertNode allocates the next vertex ID. U must be that ID (the
	// stream records it so replays are self-checking) or exactly -1 for
	// "whatever comes next".
	OpInsertNode
	// OpRemoveNode retires vertex U and every incident edge.
	OpRemoveNode
)

// opNames maps Op to the name String reports.
var opNames = [...]string{
	OpInsertEdge: "insert-edge",
	OpRemoveEdge: "remove-edge",
	OpInsertNode: "insert-node",
	OpRemoveNode: "remove-node",
}

// String returns the op's name, as update diagnostics print it.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Update is one graph mutation. Edge ops use U and V; node ops use U only
// (V is ignored). IDs are held in 4 bytes, as in the graph's rows, so an
// update is 12 bytes.
type Update struct {
	Op   Op
	U, V int32
}

// wideID is what the constructors store for an ID outside int32, instead
// of narrowing it onto another vertex; Apply refuses an update holding it.
const wideID int32 = math.MinInt32

// id32 holds an update ID in 4 bytes, or wideID when it does not fit.
func id32(v int) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return wideID
	}
	return int32(v)
}

// InsertEdge returns an insert-edge update.
func InsertEdge(u, v int) Update { return Update{Op: OpInsertEdge, U: id32(u), V: id32(v)} }

// RemoveEdge returns a remove-edge update.
func RemoveEdge(u, v int) Update { return Update{Op: OpRemoveEdge, U: id32(u), V: id32(v)} }

// InsertNode returns an insert-node update expecting the given ID to be
// allocated (-1 accepts any).
func InsertNode(id int) Update { return Update{Op: OpInsertNode, U: id32(id)} }

// RemoveNode returns a remove-node update.
func RemoveNode(v int) Update { return Update{Op: OpRemoveNode, U: id32(v)} }

// String renders the update for diagnostics.
func (u Update) String() string {
	switch u.Op {
	case OpInsertEdge, OpRemoveEdge:
		return fmt.Sprintf("%s(%d,%d)", u.Op, u.U, u.V)
	default:
		return fmt.Sprintf("%s(%d)", u.Op, u.U)
	}
}

// Batch is one atomic group of updates. The engine applies a batch's
// updates sequentially in order, then runs a single incremental repair for
// the whole batch — batches are the unit of both atomicity and repair.
type Batch []Update
