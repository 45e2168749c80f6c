package graph

import (
	"fmt"
)

// IsIndependent reports whether the vertex set marked by inSet is
// independent, returning a violating edge when it is not.
func (g *Graph) IsIndependent(inSet []bool) (ok bool, bad Edge) {
	for v := 0; v < g.N(); v++ {
		if !inSet[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && inSet[w] {
				return false, Edge{U: v, V: int(w)}
			}
		}
	}
	return true, Edge{}
}

// VerifyMIS checks that inSet marks a maximal independent set of g and
// returns a descriptive error when it does not. This is the oracle every
// algorithm's output is checked against in tests and in the experiment
// harness.
func (g *Graph) VerifyMIS(inSet []bool) error {
	if len(inSet) != g.N() {
		return fmt.Errorf("graph: set has %d entries, graph has %d vertices", len(inSet), g.N())
	}
	if ok, bad := g.IsIndependent(inSet); !ok {
		return fmt.Errorf("graph: not independent: edge (%d,%d) inside set", bad.U, bad.V)
	}
	for v := 0; v < g.N(); v++ {
		if inSet[v] {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("graph: not maximal: vertex %d has no neighbor in set", v)
		}
	}
	return nil
}

// SetSize counts true entries; a convenience for reporting MIS sizes.
func SetSize(inSet []bool) int {
	n := 0
	for _, b := range inSet {
		if b {
			n++
		}
	}
	return n
}

// AllMaximalIndependentSets enumerates every maximal independent set of a
// small graph by brute force (2^n subsets). It exists solely as a test
// oracle and panics for n > 24 to catch accidental use on real inputs.
func (g *Graph) AllMaximalIndependentSets() [][]bool {
	n := g.N()
	if n > 24 {
		panic("graph: AllMaximalIndependentSets is a test oracle for tiny graphs only")
	}
	var result [][]bool
	for mask := 0; mask < 1<<n; mask++ {
		set := make([]bool, n)
		for v := 0; v < n; v++ {
			set[v] = mask&(1<<v) != 0
		}
		if g.VerifyMIS(set) == nil {
			result = append(result, set)
		}
	}
	return result
}
