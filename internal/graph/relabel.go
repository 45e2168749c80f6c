package graph

import (
	"fmt"
	"sort"
)

// Relabel returns an isomorphic copy of g with vertex v renamed to
// perm[v]; perm must be a permutation of 0..n-1. Relabeling is how the
// tests check that algorithm guarantees do not secretly depend on the ID
// assignment (IDs are only ever used for tie-breaking). Unlike
// reconstructing from an edge list, the copy is built row-by-row straight
// into CSR form: new vertex p's row is old vertex inv[p]'s neighbors
// mapped through perm and re-sorted, avoiding the O(m) edge-struct
// materialization.
func Relabel(g *Graph, perm []int) (*Graph, error) {
	n := g.N()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation has %d entries for %d vertices", len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for v, p := range perm {
		if p < 0 || p >= n || inv[p] >= 0 {
			return nil, fmt.Errorf("graph: not a permutation (at %d)", p)
		}
		inv[p] = v
	}
	offsets := make([]int, n+1)
	for p := 0; p < n; p++ {
		offsets[p+1] = offsets[p] + g.Degree(inv[p])
	}
	adj := make([]int, offsets[n])
	for p := 0; p < n; p++ {
		row := adj[offsets[p]:offsets[p+1]]
		for i, w := range g.Neighbors(inv[p]) {
			row[i] = perm[w]
		}
		sort.Ints(row)
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}
