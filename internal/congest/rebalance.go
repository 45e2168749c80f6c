package congest

import (
	"math/bits"

	"repro/internal/trace"
)

// This file is the pool driver's live-weighted shard rebalancer. As a run
// shatters (the Pemmaraju–Riaz regime: most nodes halt early, stragglers
// concentrate in small residual components), the static equal-width shard
// layout degenerates — one worker owns most of the surviving frontier and
// the rest idle. Between rounds, while every worker is parked at its
// channel, the coordinator re-partitions the vertex range into contiguous
// pieces of near-equal *live weight*.
//
// Determinism is unaffected by construction: shards still cover ascending
// contiguous vertex ranges and are still merged in shard order, so the
// global sender order — the order inboxes are sorted by and the order the
// fault stream is consumed in — is identical for every layout. Rebalancing
// therefore changes only advisory events (EvShardBusy shapes, EvRebalance
// itself), never the deterministic stream.

// rebalanceMinPerShard is the live-vertex floor per shard below which
// rebalancing is pointless: sweeping a handful of vertices is cheaper than
// re-partitioning, and tail rounds are dominated by merge anyway.
const rebalanceMinPerShard = 64

// maybeRebalance re-partitions the shards when the live histogram is
// skewed: the fullest shard holds more than 1.5× the mean live weight and
// there is enough total work to be worth splitting. Called by the pool
// coordinator between rounds (workers idle, outboxes empty).
func (st *execState) maybeRebalance(round int) {
	numShards := len(st.shards)
	if numShards < 2 {
		return
	}
	total, maxLive := 0, 0
	for _, sh := range st.shards {
		total += sh.liveCount
		if sh.liveCount > maxLive {
			maxLive = sh.liveCount
		}
	}
	if total < rebalanceMinPerShard*numShards {
		return
	}
	// maxLive > 1.5 × (total / numShards), in integers.
	if maxLive*2*numShards <= total*3 {
		return
	}
	st.rebalance(round, total)
}

// rebalance gathers the shard frontiers into one whole-graph bitset and
// re-cuts it into contiguous ranges of near-equal popcount, on word (64
// vertex) boundaries so the per-shard frontiers are copied word-for-word.
// Word-aligned cuts bound the imbalance at 64 vertices per boundary —
// noise against the rebalanceMinPerShard floor. The outboxes and pull
// scratch are then re-sized for the new ranges.
func (st *execState) rebalance(round, total int) {
	n := st.g.N()
	numShards := len(st.shards)
	words := (n + 63) >> 6
	if st.scratch == nil {
		st.scratch = make([]uint64, words)
	}
	for i := range st.scratch {
		st.scratch[i] = 0
	}
	// Gather: shard ranges partition [0, n), so word-wise OR at each
	// shard's base reassembles the global live bitset (edge words of
	// adjacent shards share a scratch word; their set bits are disjoint).
	for _, sh := range st.shards {
		base := sh.lo >> 6
		for wi, wd := range sh.frontier {
			st.scratch[base+wi] |= wd
		}
	}
	// Cut: walk the popcount and close shard s at the first word boundary
	// where the running count reaches s's cumulative target. Cuts are
	// monotone (targets are), every shard gets a valid possibly-empty
	// range, and the last shard always closes at n so the ranges partition
	// [0, n) — every vertex keeps exactly one owning shard.
	lo := 0
	seen := 0
	word := 0
	for s, sh := range st.shards {
		hi := n
		if s < numShards-1 {
			target := (s + 1) * total / numShards
			for word < words && seen < target {
				seen += bits.OnesCount64(st.scratch[word])
				word++
			}
			hi = word << 6
			if hi > n {
				hi = n
			}
			if hi < lo {
				hi = lo
			}
		}
		sh.loadFrontier(lo, hi, st.scratch)
		lo = hi
	}
	st.sizeOutboxes()
	st.rebalances++
	if st.bus != nil {
		st.bus.Emit(trace.Event{
			Type: trace.EvRebalance, Round: int32(round),
			X: int64(total), Y: st.rebalances,
		})
	}
}
