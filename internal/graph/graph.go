// Package graph provides the immutable undirected-graph core used by every
// algorithm in this repository: compressed adjacency storage, connectivity
// queries, induced subgraphs, low-out-degree orientations and degeneracy /
// arboricity machinery, and MIS verification oracles.
//
// Graphs are simple (no self-loops, no parallel edges) and immutable once
// built, which makes them safe to share across goroutines without locks —
// the pool driver's shards sweep one graph at once. Reset rebuilds a graph
// in place for an owner that reuses its arrays, while nothing reads it.
package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in CSR (compressed sparse
// row) form. Vertices are 0..N()-1. Construct with New or MustNew, or
// rebuild one in place with Reset. Vertex IDs fit an int32 (New rejects
// larger n), so the CSR holds them in 4-byte words, as does every row the
// engine sweeps; the edge APIs (Edge, New, Edges) keep int.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // flattened sorted adjacency lists
}

// Edge is an undirected edge between U and V.
type Edge struct {
	U, V int
}

// ErrBadEdge reports an edge endpoint outside [0, n) or a self-loop.
var ErrBadEdge = errors.New("graph: edge endpoint out of range or self-loop")

// New builds a graph on n vertices from an edge list: a zero Graph built
// by Reset.
func New(n int, edges []Edge) (*Graph, error) {
	g := new(Graph)
	if err := g.Reset(n, edges); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset builds g in place as the graph on n vertices of an edge list, in
// g's arrays when they are large enough. Duplicate edges are merged;
// self-loops and out-of-range endpoints are rejected. n may not exceed
// math.MaxInt32, since the CONGEST engine carries vertex IDs in int32
// fields, nor may the degree sum, since the CSR offsets are int32. On
// error g is unchanged. Only g's owner may Reset it, while nothing reads it.
func (g *Graph) Reset(n int, edges []Edge) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("graph: vertex count %d above %d: vertex IDs must fit an int32", n, math.MaxInt32)
	}
	if err := checkDegreeSum(2 * len(edges)); err != nil {
		return err
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("%w: (%d,%d) with n=%d", ErrBadEdge, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("%w: self-loop at %d", ErrBadEdge, e.U)
		}
	}
	// offsets[v+1] counts v's degree; summed, offsets[v] is the start of
	// v's row and serves as its fill cursor, which leaves it at the row's
	// end, the start of v+1's — one slot to the right of its place.
	offsets := grow(g.offsets, n+1)
	clear(offsets)
	for _, e := range edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	adj := grow(g.adj, int(offsets[n]))
	for _, e := range edges {
		adj[offsets[e.U]] = int32(e.V)
		offsets[e.U]++
		adj[offsets[e.V]] = int32(e.U)
		offsets[e.V]++
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	g.offsets, g.adj = offsets, adj
	g.sortAndDedupe()
	return nil
}

// grow returns s at length n, in s's array when its capacity suffices.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// checkDegreeSum rejects an edge list whose degree sum, the CSR's
// adjacency length before duplicates merge, does not fit the int32
// offsets.
func checkDegreeSum(sum int) error {
	if sum > math.MaxInt32 {
		return fmt.Errorf("graph: degree sum %d above %d: CSR offsets must fit an int32", sum, math.MaxInt32)
	}
	return nil
}

// MustNew is New but panics on error; for tests and generators whose edge
// lists are correct by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAndDedupe sorts each adjacency list and removes duplicates,
// compacting the CSR in place: every row moves down over the duplicates
// dropped before it, so writes trail reads. Only when a duplicate was
// dropped does it copy the adjacency into a right-sized slice, to release
// the slack.
func (g *Graph) sortAndDedupe() {
	n := g.N()
	var k int32
	for v, lo := 0, int32(0); v < n; v++ {
		hi := g.offsets[v+1]
		row := g.adj[lo:hi]
		slices.Sort(row)
		g.offsets[v] = k
		k += int32(copy(g.adj[k:], slices.Compact(row)))
		lo = hi
	}
	g.offsets[n] = k
	if int(k) < len(g.adj) {
		g.adj = slices.Clone(g.adj[:k])
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// Rows is the CSR of a contiguous vertex range [Lo, Lo+len(Off)-1), in the
// graph's 4-byte words: vertex v's sorted adjacency is
// Adj[Off[v-Lo]:Off[v-Lo+1]]. A view from Graph.Rows keeps the graph's
// global offsets into its whole adjacency; rows decoded on their own may
// start at any offset.
type Rows struct {
	Lo  int
	Off []int32
	Adj []int32
}

// Neighbors returns the sorted adjacency of v, a vertex of the range.
// The slice aliases the rows' storage and must not be modified.
func (r Rows) Neighbors(v int) []int32 {
	i := v - r.Lo
	return r.Adj[r.Off[i]:r.Off[i+1]]
}

// Rows returns the rows of [lo, hi) as a view of the graph's own storage.
func (g *Graph) Rows(lo, hi int) Rows { return Rows{Lo: lo, Off: g.offsets[lo : hi+1], Adj: g.adj} }

// Slot returns v's index in the sorted row, or -1 if v is absent. An ID
// outside [0, math.MaxInt32] is absent: it is rejected before it is
// narrowed to the row's int32 words, where it would wrap onto another ID.
func Slot(row []int32, v int) int {
	if v < 0 || v > math.MaxInt32 {
		return -1
	}
	x := int32(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= x })
	if i < len(row) && row[i] == x {
		return i
	}
	return -1
}

// HasEdge reports whether {u, v} is an edge (binary search).
func (g *Graph) HasEdge(u, v int) bool { return Slot(g.Neighbors(u), v) >= 0 }

// MaxDegree returns the maximum degree Δ, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Edges returns the edge list with U < V in each edge, sorted.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				edges = append(edges, Edge{U: v, V: int(w)})
			}
		}
	}
	return edges
}

// InducedSubgraph returns the subgraph induced by the given vertices along
// with the mapping back to original IDs: orig[i] is the original ID of the
// subgraph's vertex i. Duplicate vertices in the input are an error.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int, error) {
	index := make(map[int]int, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if _, dup := index[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		index[v] = i
		orig[i] = v
	}
	var edges []Edge
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			if j, ok := index[int(w)]; ok && i < j {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	sub, err := New(len(vertices), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}

// Components labels vertices with connected-component IDs (0-based, in
// order of first discovery) and returns the label slice and component count.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	queue := make([]int, 0, 64)
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, int(w))
				}
			}
		}
		next++
	}
	return comp, next
}

// ComponentSizes returns the size of each component given a labeling from
// Components.
func ComponentSizes(comp []int, count int) []int {
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	return sizes
}

// BFS returns the distance (in hops) from src to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// BFSForest returns a breadth-first spanning forest as a parent array:
// each component's lowest vertex is its root (parent -1), and a vertex's
// neighbours are visited in row order. It is the rooted forest
// Cole–Vishkin takes.
func (g *Graph) BFSForest() []int {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -2 // unvisited
	}
	queue := make([]int, 0, g.N()) // every vertex is queued once
	for s := range parent {
		if parent[s] != -2 {
			continue
		}
		parent[s] = -1
		queue = append(queue, s)
		for head := len(queue) - 1; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if parent[w] == -2 {
					parent[w] = v
					queue = append(queue, int(w))
				}
			}
		}
	}
	return parent
}

// IsForest reports whether the graph is acyclic (m = n - #components).
func (g *Graph) IsForest() bool {
	_, c := g.Components()
	return g.M() == g.N()-c
}

// WriteEdgeList writes the graph as "n m" followed by one "u v" line per
// edge, a format ReadEdgeList can parse back.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("graph: write edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// ReadEdgeList parses the format produced by WriteEdgeList. The header's
// counts are untrusted input: a negative one is an error, and the edge
// slice grows with the edges actually read, so a header that declares
// more edges than follow fails at the first missing edge without
// allocating for the rest.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if _, err := fmt.Fscan(br, &n, &m); err != nil {
		return nil, fmt.Errorf("graph: read header: %w", err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: read header: negative count in %d vertices, %d edges", n, m)
	}
	var edges []Edge
	for i := 0; i < m; i++ {
		var e Edge
		if _, err := fmt.Fscan(br, &e.U, &e.V); err != nil {
			return nil, fmt.Errorf("graph: read edge %d of %d: %w", i, m, err)
		}
		edges = append(edges, e)
	}
	return New(n, edges)
}

// DistancePower returns the graph G^[lo,hi] that connects u and v exactly
// when their hop distance in g lies in [lo, hi]. The reproduced paper's
// Lemma 3.7 argues over G^[7,13]: bad events at nodes that far apart are
// independent, which is what bounds the size of connected bad clusters.
// Runs one BFS per vertex (O(n·m)); fine for the component-scale graphs
// the lemma is applied to.
func (g *Graph) DistancePower(lo, hi int) (*Graph, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("graph: invalid distance range [%d,%d]", lo, hi)
	}
	var edges []Edge
	for v := 0; v < g.N(); v++ {
		dist := g.BFS(v)
		for w := v + 1; w < g.N(); w++ {
			if dist[w] >= lo && dist[w] <= hi {
				edges = append(edges, Edge{U: v, V: w})
			}
		}
	}
	return New(g.N(), edges)
}
