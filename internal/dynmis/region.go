package dynmis

import "sort"

// Affected-region discovery: which vertices a repair run must re-decide.
//
// After a batch of updates the maintained set can be locally broken in
// exactly two ways:
//
//   - a *violated* vertex is in the MIS with an MIS neighbor (only an
//     inserted edge between two members creates this), and
//   - an *orphaned* vertex is outside the MIS with no MIS neighbor (a
//     deleted dominator edge/vertex or a freshly inserted node).
//
// Those are the repair seeds. The repair region grows from the seeds by
// BFS, but a frontier vertex is only absorbed when its current status
// could be invalidated by the repair; otherwise it stays outside as a
// frozen boundary. The stability rule:
//
//   - an MIS frontier vertex is always stable: it keeps its membership,
//     and region vertices adjacent to it are barred from joining (they are
//     excluded from the repair run as externally dominated), so no new
//     conflict can reach it;
//   - a non-MIS frontier vertex is stable iff it has an MIS neighbor
//     *outside* the region — a dominator the repair cannot touch. If every
//     dominator is inside the region (all of them violated seeds whose
//     membership the repair may revoke), its domination is at stake and it
//     joins the region.
//
// The rule is safe to evaluate during a single BFS pass: the only MIS
// vertices ever inside the region are violated seeds, all marked before
// growth starts (a stable MIS frontier vertex is never absorbed), so
// "outside the region" is monotone for the MIS vertices the rule reads.
// The radius is therefore exactly as large as the update's consequences
// and no larger — the dynamic analogue of the shattering analysis' bound
// on residual components.

// violated reports whether live vertex v is an MIS member with an MIS
// neighbor.
func (e *Engine) violated(v int) bool {
	if !e.inMIS[v] {
		return false
	}
	for _, w := range e.d.Neighbors(v) {
		if e.inMIS[w] {
			return true
		}
	}
	return false
}

// orphaned reports whether live vertex v is outside the MIS with no MIS
// neighbor.
func (e *Engine) orphaned(v int) bool {
	if e.inMIS[v] {
		return false
	}
	for _, w := range e.d.Neighbors(v) {
		if e.inMIS[w] {
			return false
		}
	}
	return true
}

// seedsFrom filters the affected vertices (sorted, deduped, live) down to
// the repair seeds: the violated and orphaned ones.
func (e *Engine) seedsFrom(affected []int) []int {
	seeds := e.seeds[:0]
	for _, v := range affected {
		if e.violated(v) || e.orphaned(v) {
			seeds = append(seeds, v)
		}
	}
	e.seeds = seeds
	return seeds
}

// growRegion BFS-grows the repair region from the seeds until the
// frontier is MIS-stable, and returns the region in ascending ID order.
// The returned slice is engine scratch, valid until the next batch.
func (e *Engine) growRegion(seeds []int) []int {
	region := e.region[:0]
	for _, v := range seeds {
		if e.slot[v] == 0 {
			e.slot[v] = -1
			region = append(region, v)
		}
	}
	for i := 0; i < len(region); i++ {
		for _, w := range e.d.Neighbors(region[i]) {
			if e.slot[w] != 0 || e.stableFrontier(int(w)) {
				continue
			}
			e.slot[w] = -1
			region = append(region, int(w))
		}
	}
	// BFS discovery order depends on seed order; canonicalize so every
	// downstream consumer (blocked split, subgraph IDs) is order-free.
	sort.Ints(region)
	e.region = region
	return region
}

// stableFrontier reports whether vertex w, adjacent to the region, can
// keep its status without being re-decided (see the package comment on
// the stability rule).
func (e *Engine) stableFrontier(w int) bool {
	if e.inMIS[w] {
		return true
	}
	for _, x := range e.d.Neighbors(w) {
		if e.inMIS[x] && e.slot[x] == 0 {
			return true
		}
	}
	return false
}

// blockedByFrozenMIS reports whether region vertex v is adjacent to a
// frozen MIS vertex outside the region. Such a vertex is externally
// dominated: it must not join the set, so the repair run excludes it.
func (e *Engine) blockedByFrozenMIS(v int) bool {
	for _, w := range e.d.Neighbors(v) {
		if e.inMIS[w] && e.slot[w] == 0 {
			return true
		}
	}
	return false
}
