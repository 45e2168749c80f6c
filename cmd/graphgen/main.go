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

	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	os.Exit(run())
}

func run() int {
	family := flag.String("family", "union", "graph family: "+gen.FamilyNames)
	n := flag.Int("n", 1024, "number of vertices")
	alpha := flag.Int("alpha", 2, "arboricity parameter (union/pa)")
	p := flag.Float64("p", 0.01, "edge probability (gnp) / radius (rgg)")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	// A bad flag must produce a usage message, not a panic or empty output.
	g, err := gen.Family(*family, *n, *alpha, *p, rng.New(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		flag.Usage()
		return 2
	}
	if err := g.WriteEdgeList(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	return 0
}
