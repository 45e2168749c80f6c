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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arbmis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "union", "graph family: "+gen.FamilyNames)
	n := fs.Int("n", 4096, "number of vertices")
	alpha := fs.Int("alpha", 2, "arboricity bound (union/pa; ArbMIS parameter everywhere)")
	p := fs.Float64("p", 0.01, "edge probability (gnp) / radius (rgg)")
	algo := fs.String("algo", "arbmis", "algorithm: arbmis|arbmis-paper|arbmis-full|metivier|luby-a|luby-b|ghaffari|matching")
	seed := fs.Uint64("seed", 1, "seed for graph and run")
	parallel := fs.Bool("parallel", false, "run on the sharded worker-pool driver (one worker per CPU)")
	stdin := fs.Bool("stdin", false, "read an edge list (\"n m\" then \"u v\" lines) from stdin instead of generating")
	traceRounds := fs.Bool("trace", false, "print per-round live-node and message counts (baseline algorithms)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var g *repro.Graph
	var err error
	if *stdin {
		g, err = graph.ReadEdgeList(os.Stdin)
	} else {
		g, err = gen.Family(*family, *n, *alpha, *p, rng.New(*seed))
	}
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	lo, hi := repro.ArboricityBounds(g)
	fmt.Fprintf(stdout, "graph: n=%d m=%d Δ=%d arboricity∈[%d,%d]\n", g.N(), g.M(), g.MaxDegree(), lo, hi)

	opts := repro.Options{Seed: *seed}
	if *parallel {
		opts.Driver = repro.DriverPool
	}
	if *traceRounds {
		opts.Events = roundPrinter{stdout}
	}
	switch *algo {
	case "arbmis-full":
		out, err := repro.ComputeMISFull(g, *alpha, opts)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(stdout, "reduction: %d iterations, %d rounds, %d survivors (maxdeg %d, target %.0f)\n",
			out.ReductionIterations, out.ReductionResult.Rounds,
			out.SurvivorCount, out.SurvivorMaxDegree, out.TargetDegree)
		size := 0
		for _, in := range out.MIS {
			if in {
				size++
			}
		}
		fmt.Fprintf(stdout, "|MIS|=%d rounds=%d\n", size, out.TotalRounds())
		fmt.Fprintln(stdout, "verified: MIS is independent and maximal")
	case "matching":
		partners, res, err := repro.MaximalMatching(g, opts)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		pairs := 0
		for _, p := range partners {
			if p != repro.MatchingUnmatched {
				pairs++
			}
		}
		fmt.Fprintf(stdout, "|M|=%d pairs, rounds=%d messages=%d\n", pairs/2, res.Rounds, res.Messages)
		fmt.Fprintln(stdout, "verified: matching is maximal")
	case "arbmis", "arbmis-paper":
		params := repro.PracticalParams(*alpha, g.MaxDegree())
		if *algo == "arbmis-paper" {
			params = repro.PaperParams(*alpha, g.MaxDegree(), 1)
		}
		out, err := repro.ComputeMISWithParams(g, params, opts)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(stdout, "params: Θ=%d Λ=%d\n", params.NumScales, params.Iterations)
		for _, s := range out.Stages {
			fmt.Fprintf(stdout, "stage %-5s nodes=%-7d rounds=%-6d messages=%d\n",
				s.Name, s.Nodes, s.Result.Rounds, s.Result.Messages)
		}
		fmt.Fprintf(stdout, "|MIS|=%d rounds=%d messages=%d maxMsgBits=%d badComponents=%d\n",
			out.MISSize(), out.TotalRounds(), out.TotalMessages(), out.MaxMessageBits(), len(out.BadComponentSizes))
		fmt.Fprintln(stdout, "verified: MIS is independent and maximal")
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
			fmt.Fprintf(stderr, "error: unknown algorithm %q\n", *algo)
			return 1
		}
		set, res, err := run(g, opts)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if err := repro.VerifyMIS(g, set); err != nil {
			fmt.Fprintln(stderr, "verification failed:", err)
			return 1
		}
		size := 0
		for _, in := range set {
			if in {
				size++
			}
		}
		fmt.Fprintf(stdout, "|MIS|=%d rounds=%d messages=%d maxMsgBits=%d\n",
			size, res.Rounds, res.Messages, res.MaxMessageBits)
		fmt.Fprintln(stdout, "verified: MIS is independent and maximal")
	}
	return 0
}

// roundPrinter prints every round's live-node and send counts, read off
// the run's round-end events.
type roundPrinter struct{ w io.Writer }

func (r roundPrinter) Emit(e trace.Event) {
	if e.Type == trace.EvRoundEnd {
		fmt.Fprintf(r.w, "round %3d: live=%-6d sent=%d\n", e.Round, e.V, e.X)
	}
}
