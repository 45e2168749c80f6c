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

// Bisect locates the first divergent deterministic event between two
// traces: it walks both deterministic streams in step to the first
// position where they differ. When the two events there belong to
// different rounds, the lower round's event is the divergence and the
// other trace's is reported missing, as it is when a trace ends early.
// Advisory events (timings, frames, respawns) are ignored, so traces from
// different drivers compare cleanly. It returns nil when the
// deterministic streams are identical.
func Bisect(a, b []Event) *Divergence {
	da, db := Deterministic(a), Deterministic(b)
	i := 0
	for i < len(da) && i < len(db) && da[i] == db[i] {
		i++
	}
	var ea, eb *Event
	if i < len(da) {
		ea = &da[i]
	}
	if i < len(db) {
		eb = &db[i]
	}
	switch {
	case ea == nil && eb == nil:
		return nil
	case ea != nil && eb != nil && ea.Round < eb.Round:
		eb = nil
	case ea != nil && eb != nil && eb.Round < ea.Round:
		ea = nil
	}
	d := &Divergence{A: ea, B: eb}
	if ea != nil {
		d.Round = int(ea.Round)
	} else {
		d.Round = int(eb.Round)
	}
	// The streams agree before i, so da's events of the divergent round
	// there are its index.
	for j := i - 1; j >= 0 && int(da[j].Round) == d.Round; j-- {
		d.Index++
	}
	return d
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
