package congest

// This file is the dense-bitset frontier layer behind shard.frontier: the
// live set of a shard's contiguous vertex range [lo, hi), one bit per
// vertex, in the Ligra dense-active-set style. Word wi of the frontier
// covers vertices [((lo>>6)+wi)<<6, ((lo>>6)+wi+1)<<6) — word boundaries
// are global (vertex v always lives at bit v&63 of word v>>6 minus the
// shard's base), so the sweep and the distributed coordinator's mirror
// find a vertex's bit the same way whatever the shard's range.
//
// A shard keeps the range it was set up with for the whole run. The
// bitset only loses bits: the sweep clears a node's bit when it halts,
// scanFates when the plan has it gone for good (a distributed worker's
// sweep, when the shipped fates say so), and nothing ever resurrects a
// cleared bit. liveCount mirrors the popcount so the empty-shard skip is
// O(1).

// frontierWords returns the word count a frontier over [lo, hi) needs.
func frontierWords(lo, hi int) int {
	if hi <= lo {
		return 0
	}
	return (hi-1)>>6 - lo>>6 + 1
}

// resetFrontier points the shard at [lo, hi) with every vertex live, in
// the last run's frontier array when it is large enough.
func (sh *shard) resetFrontier(lo, hi int) {
	sh.lo, sh.hi = lo, hi
	sh.frontier = resize(sh.frontier, frontierWords(lo, hi))
	base := lo >> 6
	for wi := range sh.frontier {
		vbase := (base + wi) << 6
		wd := ^uint64(0)
		if vbase < lo {
			wd &= ^uint64(0) << uint(lo-vbase)
		}
		if vbase+64 > hi {
			wd &= ^uint64(0) >> uint(vbase+64-hi)
		}
		sh.frontier[wi] = wd
	}
	sh.liveCount = hi - lo
}
