// Command graphgen emits a generated graph as an edge list ("n m" header,
// one "u v" line per edge) on stdout — the format cmd/arbmis -stdin reads.
//
// Usage:
//
//	graphgen -family union -n 1024 -alpha 3 -seed 7 > graph.edges
//
// With -stream the command instead emits a seeded replayable update
// stream for the dynamic-MIS engine (internal/dynmis) as JSONL: a header
// line carrying the base-graph parameters and stream knobs, then one line
// per batch. The header makes the file self-describing — replaying it
// needs nothing but the file:
//
//	graphgen -family union -n 4096 -alpha 3 -seed 7 \
//	    -stream -stream-batches 64 -stream-batch-size 16 \
//	    -stream-locality 0.2 -stream-churn 0.05 -stream-seed 11 > u.stream
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/dynmis"
	"repro/internal/rng"
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
	stream := flag.Bool("stream", false, "emit a JSONL update stream for the generated graph instead of an edge list")
	streamBatches := flag.Int("stream-batches", 64, "update batches to generate (with -stream)")
	streamBatchSize := flag.Int("stream-batch-size", 16, "updates per batch (with -stream)")
	streamLocality := flag.Float64("stream-locality", 0.0, "probability in [0,1] an update targets a recently-touched vertex (with -stream)")
	streamChurn := flag.Float64("stream-churn", 0.0, "probability in [0,1] an update is node churn (with -stream)")
	streamSeed := flag.Uint64("stream-seed", 1, "update-stream generator seed (with -stream)")
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
	if !*stream {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-stream-batches", *streamBatches != 64},
			{"-stream-batch-size", *streamBatchSize != 16},
			{"-stream-locality", *streamLocality != 0},
			{"-stream-churn", *streamChurn != 0},
			{"-stream-seed", *streamSeed != 1},
		} {
			if f.set {
				return usageError("%s requires -stream", f.name)
			}
		}
	}
	if *stream {
		if *streamBatches <= 0 {
			return usageError("-stream-batches must be positive, got %d", *streamBatches)
		}
		if *streamBatchSize <= 0 {
			return usageError("-stream-batch-size must be positive, got %d", *streamBatchSize)
		}
		if *streamLocality < 0 || *streamLocality > 1 {
			return usageError("-stream-locality must be in [0,1], got %v", *streamLocality)
		}
		if *streamChurn < 0 || *streamChurn > 1 {
			return usageError("-stream-churn must be in [0,1], got %v", *streamChurn)
		}
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
	if *stream {
		cfg := dynmis.StreamConfig{
			Batches:   *streamBatches,
			BatchSize: *streamBatchSize,
			Locality:  *streamLocality,
			Churn:     *streamChurn,
		}
		batches, err := dynmis.UpdateStream(g, cfg, rng.New(*streamSeed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		hdr := &dynmis.StreamHeader{
			Family:     *family,
			N:          *n,
			Alpha:      *alpha,
			P:          *p,
			Seed:       *seed,
			StreamSeed: *streamSeed,
			Batches:    *streamBatches,
			BatchSize:  *streamBatchSize,
			Locality:   *streamLocality,
			Churn:      *streamChurn,
		}
		if err := dynmis.WriteStream(os.Stdout, hdr, batches); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	if err := g.WriteEdgeList(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	return 0
}
