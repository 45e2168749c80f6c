// Command graphgen emits a generated graph as an edge list ("n m" header,
// one "u v" line per edge) on stdout — the format cmd/arbmis -stdin reads.
//
// Usage:
//
//	graphgen -family union -n 1024 -alpha 3 -seed 7 > graph.edges
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	os.Exit(run())
}

// families lists the accepted -family values (kept in the usage string).
const families = "tree|union|grid|gnp|pa|rgg"

// usageError reports a bad flag combination on stderr together with the
// flag summary, and returns the exit code.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	family := flag.String("family", "union", "graph family: "+families)
	n := flag.Int("n", 1024, "number of vertices")
	alpha := flag.Int("alpha", 2, "arboricity parameter (union/pa)")
	p := flag.Float64("p", 0.01, "edge probability (gnp) / radius (rgg)")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	// Validate before generating: the generators assume sane parameters and
	// a bad flag must produce a usage message, not a panic or empty output.
	if *n <= 0 {
		return usageError("-n must be positive, got %d", *n)
	}
	if *alpha < 1 && (*family == "union" || *family == "pa") {
		return usageError("-alpha must be at least 1 for -family %s, got %d", *family, *alpha)
	}
	if (*p < 0 || *p > 1) && *family == "gnp" {
		return usageError("-p must be a probability in [0,1] for -family gnp, got %v", *p)
	}
	if *p < 0 && *family == "rgg" {
		return usageError("-p (radius) must be non-negative for -family rgg, got %v", *p)
	}

	var g *repro.Graph
	switch *family {
	case "tree":
		g = repro.RandomTree(*n, *seed)
	case "union":
		g = repro.UnionOfTrees(*n, *alpha, *seed)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		g = repro.Grid(side, side)
	case "gnp":
		g = repro.GNP(*n, *p, *seed)
	case "pa":
		g = repro.PreferentialAttachment(*n, *alpha, *seed)
	case "rgg":
		g, _ = repro.RandomGeometric(*n, *p, *seed)
	default:
		return usageError("unknown family %q (want %s)", *family, families)
	}
	if err := g.WriteEdgeList(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	return 0
}
