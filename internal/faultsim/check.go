package faultsim

import (
	"fmt"

	"repro/internal/graph"
)

// Report is the invariant checker's verdict on one faulted run. Faulted
// executions cannot promise the clean-run contract (a complete MIS), so
// the checker splits it into a safety half that must always hold and a
// liveness half that is quantified instead of asserted:
//
//   - safety: the reported set is independent — no two adjacent vertices
//     both claim membership, crashed or not;
//   - liveness: coverage — the fraction of surviving (non-crashed)
//     vertices that are decided, i.e. in the set or adjacent to a set
//     member.
type Report struct {
	// N is the number of vertices in the graph.
	N int
	// Crashed is the number of vertices dead at the end of the run.
	Crashed int
	// InMIS is the number of vertices claiming set membership.
	InMIS int
	// Covered is the number of surviving vertices that are in the set or
	// have a neighbor (surviving or not) in the set.
	Covered int
	// Undecided is the number of surviving vertices left uncovered — the
	// liveness the faults destroyed.
	Undecided int
	// Violations lists independence violations as edges (u, v) with both
	// endpoints in the set. Empty means the run was safe.
	Violations []Link
}

// Safe reports whether independence held.
func (r *Report) Safe() bool { return len(r.Violations) == 0 }

// Coverage returns Covered as a fraction of surviving vertices (1 when
// every vertex crashed: an empty obligation is met).
func (r *Report) Coverage() float64 {
	alive := r.N - r.Crashed
	if alive <= 0 {
		return 1
	}
	return float64(r.Covered) / float64(alive)
}

// String renders the verdict for experiment notes and error messages.
func (r *Report) String() string {
	return fmt.Sprintf("safe=%v coverage=%.3f (|MIS|=%d, crashed=%d, undecided=%d of %d)",
		r.Safe(), r.Coverage(), r.InMIS, r.Crashed, r.Undecided, r.N)
}

// Check audits a faulted run's output. inMIS[v] marks the vertices
// claiming set membership; crashed[v] marks vertices dead at the end of
// the run (nil means none — see CrashedAt for deriving it from a Plan).
// Check never fails on liveness: a stalled or partial run yields a low
// Coverage, not an error.
func Check(g *graph.Graph, inMIS, crashed []bool) (*Report, error) {
	n := g.N()
	if len(inMIS) != n {
		return nil, fmt.Errorf("faultsim: Check got %d membership flags for %d vertices", len(inMIS), n)
	}
	if crashed == nil {
		crashed = make([]bool, n)
	}
	if len(crashed) != n {
		return nil, fmt.Errorf("faultsim: Check got %d crash flags for %d vertices", len(crashed), n)
	}
	rep := &Report{N: n}
	for v := 0; v < n; v++ {
		if crashed[v] {
			rep.Crashed++
		}
		if !inMIS[v] {
			continue
		}
		rep.InMIS++
		for _, w := range g.Neighbors(v) {
			if int(w) > v && inMIS[w] {
				rep.Violations = append(rep.Violations, Link{From: v, To: int(w)})
			}
		}
	}
	for v := 0; v < n; v++ {
		if crashed[v] {
			continue
		}
		covered := inMIS[v]
		for _, w := range g.Neighbors(v) {
			if covered {
				break
			}
			covered = inMIS[w]
		}
		if covered {
			rep.Covered++
		} else {
			rep.Undecided++
		}
	}
	return rep, nil
}
