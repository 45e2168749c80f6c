// Command traceview inspects, converts and diffs recorded execution
// traces (the JSONL files cmd/bench -trace writes).
//
// Usage:
//
//	traceview summary run.jsonl
//	traceview diff a.jsonl b.jsonl
//	traceview chrome run.jsonl > run.chrome.json
//
// summary prints the trace's shape: runs, rounds, the deepest round any
// run started, message and node totals, the deterministic fingerprint
// (the value the golden tests pin) and event counts per type. A file may
// hold many runs (cmd/bench -trace writes every run of the chosen
// experiments into one): a run starts at each round-0 round-start event,
// and rounds sums the runs' rounds with Init (round 0) not counted, so it
// equals the sum of their congest.Result.Rounds.
//
// diff bisects two traces to their first divergent deterministic event and
// exits 1 if they diverge; advisory events (driver timings, transport
// frames, respawns) are ignored, so traces recorded under different engine
// drivers compare clean.
//
// chrome converts a JSONL trace to the Chrome trace-event format on
// stdout, loadable in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `Usage:
  traceview summary run.jsonl
  traceview diff a.jsonl b.jsonl
  traceview chrome run.jsonl > run.chrome.json
`

// run executes one traceview command and returns its exit code: 0 on
// success, 1 on a divergence or an unreadable trace, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	files := map[string]int{"summary": 1, "diff": 2, "chrome": 1}
	if n, ok := files[args[0]]; !ok || len(args)-1 != n {
		if !ok {
			fmt.Fprintf(stderr, "traceview: unknown command %q\n", args[0])
		}
		fmt.Fprint(stderr, usage)
		return 2
	}
	traces := make([][]trace.Event, len(args)-1)
	for i, path := range args[1:] {
		events, err := load(path)
		if err != nil {
			fmt.Fprintf(stderr, "traceview: %v\n", err)
			return 1
		}
		traces[i] = events
	}
	switch args[0] {
	case "summary":
		summary(stdout, args[1], traces[0])
	case "diff":
		if d := trace.Bisect(traces[0], traces[1]); d != nil {
			fmt.Fprintf(stdout, "%s\n", d)
			return 1
		}
		fmt.Fprintf(stdout, "traces identical: fingerprint %#x\n", trace.Fingerprint(traces[0]))
	case "chrome":
		sink := trace.NewChromeSink(stdout)
		for _, e := range traces[0] {
			sink.Emit(e)
		}
		if err := sink.Close(); err != nil {
			fmt.Fprintf(stderr, "traceview: %v\n", err)
			return 1
		}
	}
	return 0
}

// load reads one JSONL trace file.
func load(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadJSONL(f)
}

// summary prints the trace's aggregate shape.
func summary(w io.Writer, path string, events []trace.Event) {
	byType := map[trace.Type]int{}
	var runs, rounds, det int
	var deepest int32
	var sent, delivered, dropped, delayed, halts, draws int64
	for _, e := range events {
		byType[e.Type]++
		if e.Type.Deterministic() {
			det++
		}
		switch e.Type {
		case trace.EvRoundStart:
			if e.Round == 0 {
				runs++
			}
			deepest = max(deepest, e.Round)
		case trace.EvRoundEnd:
			if e.Round > 0 {
				rounds++
			}
			sent += e.X
			delivered += e.Y
			dropped += e.Z
		case trace.EvDelay:
			delayed++
		case trace.EvHalt:
			halts++
		case trace.EvRNG:
			draws += e.X
		}
	}
	fmt.Fprintf(w, "%s: %d events in %d runs\n", path, len(events), runs)
	fmt.Fprintf(w, "  rounds:   total=%d deepest=%d (Init, round 0, not counted)\n", rounds, deepest)
	fmt.Fprintf(w, "  messages: sent=%d delivered=%d dropped=%d delayed=%d\n", sent, delivered, dropped, delayed)
	fmt.Fprintf(w, "  nodes:    halts=%d rng-draws=%d\n", halts, draws)
	fmt.Fprintf(w, "  fingerprint %#x over %d deterministic events\n", trace.Fingerprint(events), det)
	types := make([]trace.Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Fprintf(w, "  %-12s %d\n", t.String(), byType[t])
	}
}
