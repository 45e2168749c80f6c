// Command arbmis runs one MIS algorithm on one generated (or piped) graph
// and reports rounds, messages, and the result.
//
// Usage:
//
//	arbmis -family union -n 4096 -alpha 3 -algo arbmis [-seed 1] [-parallel]
//	arbmis -stdin -algo metivier -trace < graph.edges
//
// Families: tree, union, grid, gnp, pa, rgg. Algorithms: arbmis,
// arbmis-paper, arbmis-full, metivier, luby-a, luby-b, ghaffari, matching.
// -trace prints per-round live/message counts for the baseline algorithms.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/graph"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	family := flag.String("family", "union", "graph family: tree|union|grid|gnp|pa|rgg")
	n := flag.Int("n", 4096, "number of vertices")
	alpha := flag.Int("alpha", 2, "arboricity bound (union/pa; ArbMIS parameter everywhere)")
	p := flag.Float64("p", 0.01, "edge probability (gnp) / radius (rgg)")
	algo := flag.String("algo", "arbmis", "algorithm: arbmis|arbmis-paper|arbmis-full|metivier|luby-a|luby-b|ghaffari|matching")
	seed := flag.Uint64("seed", 1, "seed for graph and run")
	parallel := flag.Bool("parallel", false, "run on the sharded worker-pool driver (one worker per CPU)")
	stdin := flag.Bool("stdin", false, "read an edge list (\"n m\" then \"u v\" lines) from stdin instead of generating")
	traceRounds := flag.Bool("trace", false, "print per-round live-node and message counts (baseline algorithms)")
	flag.Parse()

	g, err := buildGraph(*stdin, *family, *n, *alpha, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	lo, hi := repro.ArboricityBounds(g)
	fmt.Printf("graph: n=%d m=%d Δ=%d arboricity∈[%d,%d]\n", g.N(), g.M(), g.MaxDegree(), lo, hi)

	opts := repro.Options{Seed: *seed}
	if *parallel {
		opts.Driver = repro.DriverPool
	}
	if *traceRounds {
		opts.Events = roundPrinter{}
	}
	switch *algo {
	case "arbmis-full":
		out, err := repro.ComputeMISFull(g, *alpha, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Printf("reduction: %d iterations, %d rounds, %d survivors (maxdeg %d, target %.0f)\n",
			out.ReductionIterations, out.ReductionResult.Rounds,
			out.SurvivorCount, out.SurvivorMaxDegree, out.TargetDegree)
		size := 0
		for _, in := range out.MIS {
			if in {
				size++
			}
		}
		fmt.Printf("|MIS|=%d rounds=%d\n", size, out.TotalRounds())
		fmt.Println("verified: MIS is independent and maximal")
	case "matching":
		partners, res, err := repro.MaximalMatching(g, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		pairs := 0
		for _, p := range partners {
			if p != repro.MatchingUnmatched {
				pairs++
			}
		}
		fmt.Printf("|M|=%d pairs, rounds=%d messages=%d\n", pairs/2, res.Rounds, res.Messages)
		fmt.Println("verified: matching is maximal")
	case "arbmis", "arbmis-paper":
		params := repro.PracticalParams(*alpha, g.MaxDegree())
		if *algo == "arbmis-paper" {
			params = repro.PaperParams(*alpha, g.MaxDegree(), 1)
		}
		out, err := repro.ComputeMISWithParams(g, params, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Printf("params: Θ=%d Λ=%d\n", params.NumScales, params.Iterations)
		for _, s := range out.Stages {
			fmt.Printf("stage %-5s nodes=%-7d rounds=%-6d messages=%d\n",
				s.Name, s.Nodes, s.Result.Rounds, s.Result.Messages)
		}
		fmt.Printf("|MIS|=%d rounds=%d messages=%d maxMsgBits=%d badComponents=%d\n",
			out.MISSize(), out.TotalRounds(), out.TotalMessages(), out.MaxMessageBits(), len(out.BadComponentSizes))
		fmt.Println("verified: MIS is independent and maximal")
	default:
		var run func(*repro.Graph, repro.Options) ([]bool, repro.Result, error)
		switch *algo {
		case "metivier":
			run = repro.Metivier
		case "luby-a":
			run = repro.LubyA
		case "luby-b":
			run = repro.LubyB
		case "ghaffari":
			run = repro.Ghaffari
		default:
			fmt.Fprintf(os.Stderr, "error: unknown algorithm %q\n", *algo)
			return 1
		}
		set, res, err := run(g, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		if err := repro.VerifyMIS(g, set); err != nil {
			fmt.Fprintln(os.Stderr, "verification failed:", err)
			return 1
		}
		size := 0
		for _, in := range set {
			if in {
				size++
			}
		}
		fmt.Printf("|MIS|=%d rounds=%d messages=%d maxMsgBits=%d\n",
			size, res.Rounds, res.Messages, res.MaxMessageBits)
		fmt.Println("verified: MIS is independent and maximal")
	}
	return 0
}

// roundPrinter prints every round's live-node and send counts, read off
// the run's round-end events.
type roundPrinter struct{}

func (roundPrinter) Emit(e trace.Event) {
	if e.Type == trace.EvRoundEnd {
		fmt.Printf("round %3d: live=%-6d sent=%d\n", e.Round, e.V, e.X)
	}
}

func buildGraph(stdin bool, family string, n, alpha int, p float64, seed uint64) (*repro.Graph, error) {
	if stdin {
		return graph.ReadEdgeList(os.Stdin)
	}
	switch family {
	case "tree":
		return repro.RandomTree(n, seed), nil
	case "union":
		return repro.UnionOfTrees(n, alpha, seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return repro.Grid(side, side), nil
	case "gnp":
		return repro.GNP(n, p, seed), nil
	case "pa":
		return repro.PreferentialAttachment(n, alpha, seed), nil
	case "rgg":
		g, _ := repro.RandomGeometric(n, p, seed)
		return g, nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
