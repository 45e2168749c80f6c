package exp

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/ftmetivier"
	"repro/internal/stats"
)

// faultScenario is one fault family swept at several intensities. The
// intensity knob means different things per family (drop probability,
// crashed fraction, delay in rounds) — build renders it into a plan.
type faultScenario struct {
	name        string
	intensities []float64
	build       func(n int, x float64) faultsim.Plan
}

// faultScenarios returns the E16 sweep: every faultsim plan kind at
// escalating intensities, plus a composed worst case.
func faultScenarios() []faultScenario {
	return []faultScenario{
		{"drop", []float64{0, 0.02, 0.05, 0.1, 0.2}, func(_ int, p float64) faultsim.Plan {
			if p == 0 {
				return nil
			}
			return faultsim.BernoulliDrop{P: p}
		}},
		{"crash-stop", []float64{1.0 / 32, 1.0 / 16, 1.0 / 8}, func(n int, f float64) faultsim.Plan {
			return faultsim.NewCrashStop(faultsim.SpreadCrashes(n, int(f*float64(n)), 2, 7))
		}},
		{"crash-restart", []float64{1.0 / 16, 1.0 / 8}, func(n int, f float64) faultsim.Plan {
			windows := make(map[int]faultsim.Window)
			for v, r := range faultsim.SpreadCrashes(n, int(f*float64(n)), 2, 7) {
				windows[v] = faultsim.Window{Down: r, Up: r + 9}
			}
			return faultsim.NewCrashRestart(windows)
		}},
		{"partition", []float64{6, 18}, func(n int, w float64) faultsim.Plan {
			side := make([]bool, n)
			for v := range side {
				side[v] = v%2 == 0
			}
			return faultsim.NewPartition(side, 3, 3+int(w))
		}},
		{"delay", []float64{1, 3}, func(_ int, k float64) faultsim.Plan {
			return faultsim.DelayK{K: int(k)}
		}},
		{"composed", []float64{0.05}, func(n int, p float64) faultsim.Plan {
			return faultsim.Compose(
				faultsim.BernoulliDrop{P: p},
				faultsim.NewCrashStop(faultsim.SpreadCrashes(n, n/32, 4, 11)),
			)
		}},
	}
}

// faultedRun executes fault-tolerant Métivier under plan and scores the
// output with the faultsim checker.
func faultedRun(g *graph.Graph, plan faultsim.Plan, opts congest.Options) (*faultsim.Report, congest.Result, error) {
	opts.Faults = plan
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 3 * ftmetivier.DefaultMaxIters * 2
	}
	st, res, err := ftmetivier.Run(g, opts)
	if err != nil {
		return nil, res, err
	}
	crashed := faultsim.CrashedAt(plan, res.Rounds+1, g.N())
	rep, err := faultsim.Check(g, base.MISSet(st), crashed)
	return rep, res, err
}

// E16FaultTolerance sweeps the faultsim plan families against the
// fault-tolerant Métivier variant: rounds and coverage degrade with fault
// intensity, but independence (safety) must hold in every single run —
// any violation fails the experiment outright. This is the constructive
// counterpart of A4, which measures how the *plain* algorithm breaks.
func E16FaultTolerance(c Config) (*Report, error) {
	n := 1 << 9
	if c.Quick {
		n = 1 << 7
	}
	table := stats.NewTable(fmt.Sprintf("E16 — fault intensity vs rounds and coverage (ftmetivier, union-of-trees, n=%d, α=2)", n),
		"scenario", "intensity", "rounds", "coverage", "undecided", "crashed", "dropped/run", "delayed/run")
	violations := 0
	for si, sc := range faultScenarios() {
		for _, x := range sc.intensities {
			label := uint64(0xE16)<<32 | uint64(si)<<16 | uint64(x*1000)
			var rounds, coverage, undecided, crashed, dropped, delayed stats.Summary
			for i := 0; i < c.seeds(); i++ {
				g := arbGraph(n, 2, c.graphRNG(label, i))
				rep, res, err := faultedRun(g, sc.build(n, x), c.opts(label, i))
				if errors.Is(err, congest.ErrMaxRounds) {
					return nil, fmt.Errorf("E16: %s x=%v: hit MaxRounds; the iteration budget must terminate every run", sc.name, x)
				}
				if err != nil {
					return nil, fmt.Errorf("E16: %s x=%v: %w", sc.name, x, err)
				}
				violations += len(rep.Violations)
				rounds.Add(float64(res.Rounds))
				coverage.Add(rep.Coverage())
				undecided.Add(float64(rep.Undecided))
				crashed.Add(float64(rep.Crashed))
				dropped.Add(float64(res.Dropped))
				delayed.Add(float64(res.Delayed))
			}
			table.AddRow(sc.name, x, rounds.Mean(), coverage.Mean(), undecided.Mean(), crashed.Mean(), dropped.Mean(), delayed.Mean())
		}
	}
	if violations > 0 {
		return nil, fmt.Errorf("E16: %d independence violations — the conservative join rule is broken", violations)
	}
	rep := &Report{
		ID:    "E16",
		Title: "fault-tolerant MIS: safety holds under every fault plan; liveness (coverage) degrades with intensity",
		Table: table,
	}
	rep.Notes = append(rep.Notes,
		"zero independence violations across the whole sweep — positive-evidence joining is safe under loss, crashes and partitions.",
		"coverage < 1 rows show the price: fault-stalled nodes give up undecided at the iteration budget instead of guessing.")
	return rep, nil
}
