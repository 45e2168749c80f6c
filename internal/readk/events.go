package readk

import (
	"fmt"

	"repro/internal/graph"
)

// This file builds the paper's three event families (Section 3.1) from a
// concrete graph orientation, with one base variable per vertex (its
// priority draw). The builders return the family together with the read
// parameter the paper claims for it, so tests and experiments can check
// K() against the claim:
//
//	Event (1): Y_x = "r(x) < max r(child)", x in an independent M — read-α
//	Event (2): Y_u = "r(u) > max r(competitive parent)"          — read-ρₖ
//	Event (3): Z_w = "some child of w beats all its children"    — read-α(α+1)

// priorityOf treats base value v as a priority; comparisons use the raw
// uint64 order with index tie-breaks applied by the caller where needed.

// Event1Family builds, for each x in m (which must be independent in the
// graph), the indicator Y_x of "x's priority is smaller than some child's"
// — the complement of the winning event of Theorem 3.1. The claimed read
// parameter is the maximum, over vertices, of the number of parents inside
// m (at most α for an α-orientation).
func Event1Family(o *graph.Orientation, m []int) (*Family, int, error) {
	g := o.Graph()
	if err := requireIndependent(g, m); err != nil {
		return nil, 0, err
	}
	f, err := NewFamily(g.N())
	if err != nil {
		return nil, 0, err
	}
	for _, x := range m {
		deps := append([]int{x}, o.Children(x)...)
		if err := f.Add(deps, func(vals []uint64) bool {
			// vals[0] = r(x); vals[1:] = children's priorities.
			for _, c := range vals[1:] {
				if c > vals[0] {
					return true
				}
			}
			return false
		}); err != nil {
			return nil, 0, err
		}
	}
	return f, maxIntSlice(1, f.mult), nil
}

// Event2Family builds, for each u in m, the indicator F_u of "u's priority
// exceeds every competitive parent's", where a vertex is competitive when
// its degree is at most rho. The claimed read parameter is ρ: a competitive
// parent has at most ρ children, so its priority is read at most ρ times
// (plus each u reading its own draw once).
func Event2Family(o *graph.Orientation, m []int, rho int) (*Family, int, error) {
	g := o.Graph()
	f, err := NewFamily(g.N())
	if err != nil {
		return nil, 0, err
	}
	for _, u := range m {
		deps := []int{u}
		for _, p := range o.Parents(u) {
			if g.Degree(p) <= rho {
				deps = append(deps, p)
			}
		}
		if err := f.Add(deps, func(vals []uint64) bool {
			for _, p := range vals[1:] {
				if p >= vals[0] {
					return false
				}
			}
			return true
		}); err != nil {
			return nil, 0, err
		}
	}
	return f, maxIntSlice(1, f.mult), nil
}

// Event3Family builds, for each w in m, the indicator G_w of "some child of
// w has a priority larger than all of that child's children" — the
// elimination event of Theorem 3.3. G_w reads w's children and
// grandchildren (and w's own draw, which the paper notes is immaterial);
// in an α-orientation a vertex is a child of at most α members and a
// grandchild of at most α² members, giving the paper's read-α(α+1).
func Event3Family(o *graph.Orientation, m []int) (*Family, int, error) {
	g := o.Graph()
	f, err := NewFamily(g.N())
	if err != nil {
		return nil, 0, err
	}
	for _, w := range m {
		// Vertices can recur (a grandchild reachable via two children, or
		// a vertex that is both child and grandchild), so dependencies are
		// deduplicated through a position map and each child's comparison
		// set references positions.
		deps := []int{w}
		pos := map[int]int{w: 0}
		position := func(v int) int {
			if p, ok := pos[v]; ok {
				return p
			}
			p := len(deps)
			deps = append(deps, v)
			pos[v] = p
			return p
		}
		type segment struct {
			childPos int
			gcPos    []int
		}
		var segs []segment
		for _, c := range o.Children(w) {
			seg := segment{childPos: position(c)}
			for _, gc := range o.Children(c) {
				seg.gcPos = append(seg.gcPos, position(gc))
			}
			segs = append(segs, seg)
		}
		if err := f.Add(deps, func(vals []uint64) bool {
			for _, s := range segs {
				beatsAll := true
				for _, p := range s.gcPos {
					if vals[p] >= vals[s.childPos] {
						beatsAll = false
						break
					}
				}
				if beatsAll {
					return true
				}
			}
			return false
		}); err != nil {
			return nil, 0, err
		}
	}
	return f, maxIntSlice(1, f.mult), nil
}

func requireIndependent(g *graph.Graph, m []int) error {
	in := make(map[int]bool, len(m))
	for _, v := range m {
		in[v] = true
	}
	for _, v := range m {
		for _, w := range g.Neighbors(v) {
			if in[int(w)] {
				return fmt.Errorf("readk: event-1 set must be independent; edge (%d,%d)", v, w)
			}
		}
	}
	return nil
}

// maxIntSlice returns the maximum of floor and the values in xs.
func maxIntSlice(floor int, xs []int) int {
	m := floor
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// IndependentSubset greedily extracts an independent subset of m of size at
// least |m|/(Δ(m)+1); the paper's Theorem 3.1 proof uses the existence of
// such a subset of size |m|/2α inside any set on an arboricity-α graph.
func IndependentSubset(g *graph.Graph, m []int) []int {
	in := make(map[int]bool, len(m))
	for _, v := range m {
		in[v] = true
	}
	blocked := make(map[int]bool, len(m))
	var ind []int
	for _, v := range m {
		if blocked[v] {
			continue
		}
		ind = append(ind, v)
		for _, w := range g.Neighbors(v) {
			if in[int(w)] {
				blocked[int(w)] = true
			}
		}
	}
	return ind
}
