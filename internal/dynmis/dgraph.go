package dynmis

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// DGraph is a mutable simple undirected graph under streaming updates: the
// substrate the dynamic-MIS engine maintains its set over, and the state
// the update-stream generator (UpdateStream) mirrors while emitting ops.
//
// Vertex IDs are append-only: InsertNode always allocates the next unused
// ID and RemoveNode retires an ID forever (no reuse). That keeps every ID
// in a stream meaningful for its whole lifetime — a replayed stream means
// the same thing on every run — and makes the ID space a deterministic
// function of the update stream alone. Adjacency lists are kept sorted, so
// neighbor iteration order is ID order everywhere, the same invariant the
// immutable graph.Graph core guarantees, and hold IDs in the same 4-byte
// words as its CSR rows.
//
// Every row lives in one arena, at the start of a block of at least
// blockLen(its length) entries, and an ID's span locates it in 8 bytes,
// where a slice header takes 24. A full row moves to a block twice the
// size at the arena's end; a full arena is compacted.
type DGraph struct {
	rows   []span  // per ID; the zero span, an empty row, for isolated and dead IDs
	arena  []int32 // every row's block
	dead   []bool  // retired IDs (RemoveNode)
	nAlive int
	m      int
}

// span locates a row: its n IDs start at arena[off].
type span struct {
	off uint32
	n   int32
}

// NewDGraph builds a dynamic graph seeded with a snapshot of g (every
// vertex of g alive, IDs preserved).
func NewDGraph(g *graph.Graph) *DGraph {
	rows := g.Rows(0, g.N())
	d := &DGraph{
		rows:   make([]span, g.N()),
		arena:  rows.Adj, // read, never written: compact copies the rows out
		dead:   make([]bool, g.N()),
		nAlive: g.N(),
		m:      g.M(),
	}
	for v := range d.rows {
		d.rows[v] = span{off: uint32(rows.Off[v]), n: rows.Off[v+1] - rows.Off[v]}
	}
	d.compact()
	return d
}

// blockLen is the least block a row of n IDs holds: n rounded up to a
// power of two, and 0 for n = 0, where the shift passes the word's width.
func blockLen(n int) int { return 1 << bits.Len(uint(n-1)) }

// place copies row to a new block of the given length at the arena's end
// and points v's span at it. The arena grows by slices.Grow, not by
// appending a make, whose make the race detector's build allocates.
func (d *DGraph) place(v int, row []int32, block int) {
	off := len(d.arena)
	if off+block > math.MaxUint32 {
		panic("dynmis: DGraph arena above 2^32 entries")
	}
	d.arena = append(slices.Grow(d.arena, block), row...)[:off+block]
	d.rows[v] = span{off: uint32(off), n: int32(len(row))}
}

// compact copies every row into a new arena, each in the smallest block
// blockLen allows, with room for as many entries again, which drops the
// blocks that moved and removed rows left behind.
func (d *DGraph) compact() {
	old, live := d.arena, 0
	for _, r := range d.rows {
		live += blockLen(int(r.n))
	}
	d.arena = make([]int32, 0, 2*live)
	for v, r := range d.rows {
		d.place(v, old[r.off:int(r.off)+int(r.n)], blockLen(int(r.n)))
	}
}

// NumIDs returns the size of the ID space: every ID ever allocated,
// retired ones included. Valid IDs are 0..NumIDs()-1.
func (d *DGraph) NumIDs() int { return len(d.rows) }

// AliveCount returns the number of live vertices.
func (d *DGraph) AliveCount() int { return d.nAlive }

// M returns the number of (undirected) edges.
func (d *DGraph) M() int { return d.m }

// Alive reports whether v is a live vertex (allocated and not removed).
func (d *DGraph) Alive(v int) bool { return v >= 0 && v < len(d.rows) && !d.dead[v] }

// Neighbors returns v's sorted adjacency list. The slice aliases internal
// storage, is invalidated by the next mutation, and must not be modified.
func (d *DGraph) Neighbors(v int) []int32 {
	r := d.rows[v]
	end := int(r.off) + int(r.n)
	return d.arena[r.off:end:end]
}

// Degree returns v's degree.
func (d *DGraph) Degree(v int) int { return int(d.rows[v].n) }

// HasEdge reports whether {u, v} is an edge (binary search). An
// out-of-range u, or a v outside int32, is no edge.
func (d *DGraph) HasEdge(u, v int) bool {
	return u >= 0 && u < len(d.rows) && graph.Slot(d.Neighbors(u), v) >= 0
}

// checkEndpoint validates one edge endpoint.
func (d *DGraph) checkEndpoint(v int) error {
	if v < 0 || v >= len(d.rows) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(d.rows))
	}
	if d.dead[v] {
		return fmt.Errorf("vertex %d is removed", v)
	}
	return nil
}

// InsertEdge adds the edge {u, v}. Self-loops, dead or out-of-range
// endpoints, and edges that already exist are errors.
func (d *DGraph) InsertEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("self-loop at %d", u)
	}
	if err := d.checkEndpoint(u); err != nil {
		return err
	}
	if err := d.checkEndpoint(v); err != nil {
		return err
	}
	if d.HasEdge(u, v) {
		return fmt.Errorf("edge (%d,%d) already exists", u, v)
	}
	d.insertSorted(u, int32(v))
	d.insertSorted(v, int32(u))
	d.m++
	return nil
}

// RemoveEdge deletes the edge {u, v}; removing an absent edge is an error.
func (d *DGraph) RemoveEdge(u, v int) error {
	if err := d.checkEndpoint(u); err != nil {
		return err
	}
	if err := d.checkEndpoint(v); err != nil {
		return err
	}
	if !d.HasEdge(u, v) {
		return fmt.Errorf("edge (%d,%d) does not exist", u, v)
	}
	d.removeSorted(u, int32(v))
	d.removeSorted(v, int32(u))
	d.m--
	return nil
}

// InsertNode allocates the next vertex ID and returns it. The new vertex
// starts isolated; wire it with InsertEdge.
func (d *DGraph) InsertNode() int {
	id := len(d.rows)
	d.rows = append(d.rows, span{})
	d.dead = append(d.dead, false)
	d.nAlive++
	return id
}

// RemoveNode retires vertex v, deleting every incident edge, and returns
// v's former neighbors (sorted). The returned slice is v's old row, valid
// until the next mutation.
func (d *DGraph) RemoveNode(v int) ([]int32, error) {
	if err := d.checkEndpoint(v); err != nil {
		return nil, err
	}
	former := d.Neighbors(v)
	for _, w := range former {
		d.removeSorted(int(w), int32(v))
	}
	d.m -= len(former)
	d.rows[v] = span{}
	d.dead[v] = true
	d.nAlive--
	return former, nil
}

// Snapshot materializes the live subgraph as an immutable graph.Graph plus
// the mapping back to DGraph IDs: orig[i] is the DGraph ID of snapshot
// vertex i. Used by the full-recompute baseline and the property tests.
func (d *DGraph) Snapshot() (*graph.Graph, []int) {
	orig := make([]int, 0, d.nAlive)
	local := make([]int, len(d.rows))
	for v := range d.rows {
		if d.dead[v] {
			local[v] = -1
			continue
		}
		local[v] = len(orig)
		orig = append(orig, v)
	}
	edges := make([]graph.Edge, 0, d.m)
	for i, v := range orig {
		for _, w := range d.Neighbors(v) {
			if j := local[w]; i < j {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	return graph.MustNew(len(orig), edges), orig
}

// insertSorted inserts x into v's sorted row, preserving order, first
// moving a row that fills its block to a block twice the size.
func (d *DGraph) insertSorted(v int, x int32) {
	if n := int(d.rows[v].n); n == blockLen(n) {
		block := max(1, 2*n)
		if len(d.arena)+block > cap(d.arena) {
			d.compact()
		}
		d.place(v, d.Neighbors(v), block)
	}
	r := &d.rows[v]
	row := d.arena[r.off : int(r.off)+int(r.n)+1]
	i, _ := slices.BinarySearch(row[:r.n], x)
	copy(row[i+1:], row[i:])
	row[i] = x
	r.n++
}

// removeSorted deletes x from v's sorted row; the caller guarantees
// presence.
func (d *DGraph) removeSorted(v int, x int32) {
	row := d.Neighbors(v)
	i, _ := slices.BinarySearch(row, x)
	copy(row[i:], row[i+1:])
	d.rows[v].n--
}
