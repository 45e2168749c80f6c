package trace

import "fmt"

// This file turns a failed determinism assertion from a boolean into a
// diagnosis. Bisect compares two traces (two drivers, a faulted vs clean
// run, a recorded file vs a fresh re-execution) and pinpoints the first
// deterministic event where they part ways; Replay re-executes a program
// and bisects it against a reference trace.

// Divergence pinpoints the first difference between two deterministic
// event streams.
type Divergence struct {
	// Round is the first round whose deterministic events differ.
	Round int
	// Index is the position within that round's deterministic events.
	Index int
	// A and B are the differing events from each trace; one is nil when a
	// trace ends early or its round has fewer events.
	A, B *Event
}

// String renders the divergence for error messages.
func (d *Divergence) String() string {
	if d == nil {
		return "traces identical"
	}
	fmtEv := func(e *Event) string {
		if e == nil {
			return "<missing>"
		}
		return e.String()
	}
	return fmt.Sprintf("first divergence at round %d, event %d: %s vs %s",
		d.Round, d.Index, fmtEv(d.A), fmtEv(d.B))
}

// roundIndex groups a trace's deterministic events by round: offsets[r]
// is the start of round r's events in det, and hashes[r] is the running
// fingerprint of everything up to and including round r (a prefix hash,
// so a single corrupted event poisons every later entry and binary search
// lands exactly on the first bad round).
type roundIndex struct {
	det     []Event
	offsets []int
	hashes  []uint64
}

// indexRounds builds the per-round index. Rounds are assumed
// nondecreasing, which the engine guarantees.
func indexRounds(events []Event) roundIndex {
	det := Deterministic(events)
	idx := roundIndex{det: det}
	h := uint64(fnvOffset)
	cur := int32(-1)
	for i, e := range det {
		for cur < e.Round { // open rounds (handles empty rounds defensively)
			if cur >= 0 {
				idx.hashes = append(idx.hashes, h)
			}
			cur++
			idx.offsets = append(idx.offsets, i)
		}
		h = fpFold(h, e)
	}
	if cur >= 0 {
		idx.hashes = append(idx.hashes, h)
	}
	return idx
}

// rounds returns the number of rounds the index covers.
func (ri roundIndex) rounds() int { return len(ri.offsets) }

// round returns round r's deterministic events.
func (ri roundIndex) round(r int) []Event {
	lo := ri.offsets[r]
	hi := len(ri.det)
	if r+1 < len(ri.offsets) {
		hi = ri.offsets[r+1]
	}
	return ri.det[lo:hi]
}

// Bisect locates the first divergent deterministic event between two
// traces. It binary-searches the per-round prefix fingerprints to find
// the first round whose history differs, then scans that round event by
// event. Advisory events (timings, frames, respawns) are ignored, so
// traces from different drivers compare cleanly. It returns nil when the
// deterministic streams are identical.
func Bisect(a, b []Event) *Divergence {
	ia, ib := indexRounds(a), indexRounds(b)
	common := ia.rounds()
	if ib.rounds() < common {
		common = ib.rounds()
	}
	// Binary search for the first round r (within the common prefix) with
	// differing prefix hashes. Invariant: rounds < lo agree, rounds >= hi
	// are unknown-or-differing.
	lo, hi := 0, common
	for lo < hi {
		mid := (lo + hi) / 2
		if ia.hashes[mid] == ib.hashes[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == common {
		// The common prefix agrees; any divergence is a trace ending early.
		if ia.rounds() == ib.rounds() {
			return nil
		}
		longer, missingB := ia, true
		if ib.rounds() > ia.rounds() {
			longer, missingB = ib, false
		}
		ev := longer.round(common)[0]
		d := &Divergence{Round: int(ev.Round)}
		if missingB {
			d.A = &ev
		} else {
			d.B = &ev
		}
		return d
	}
	// Round lo is the first divergent round; pinpoint the event.
	ra, rb := ia.round(lo), ib.round(lo)
	for i := 0; i < len(ra) || i < len(rb); i++ {
		var ea, eb *Event
		if i < len(ra) {
			ea = &ra[i]
		}
		if i < len(rb) {
			eb = &rb[i]
		}
		if ea == nil || eb == nil || *ea != *eb {
			round := lo
			if ea != nil {
				round = int(ea.Round)
			} else if eb != nil {
				round = int(eb.Round)
			}
			return &Divergence{Round: round, Index: i, A: ea, B: eb}
		}
	}
	// Prefix hashes differed but the events agree — impossible unless the
	// index is corrupt; report the round boundary rather than lying.
	return &Divergence{Round: lo}
}

// Replay re-executes a program and diffs its deterministic event stream
// against a reference trace. run must execute the program with the given
// sink attached to the engine (typically by setting
// congest.Options.Events); Replay returns the first divergence, or nil if
// the re-execution reproduced the reference exactly. A run error is
// returned as-is: a replay that cannot even complete is a different
// failure than one that diverges.
func Replay(ref []Event, run func(Sink) error) (*Divergence, error) {
	got := &MemorySink{}
	if err := run(got); err != nil {
		return nil, err
	}
	return Bisect(ref, got.Events), nil
}
