// Command traceview inspects, converts, diffs, and serves recorded
// execution traces (the JSONL files cmd/bench -trace writes).
//
// Usage:
//
//	traceview summary run.jsonl
//	traceview diff a.jsonl b.jsonl
//	traceview chrome run.jsonl > run.chrome.json
//	traceview serve -addr :9464 run.jsonl
//
// summary prints the trace's shape: rounds, event counts per type, message
// totals, and the deterministic fingerprint (the value the golden tests
// pin).
//
// diff bisects two traces to their first divergent deterministic event and
// exits non-zero if they diverge; advisory events (driver timings,
// transport frames, respawns) are ignored, so traces recorded under
// different engine drivers compare clean.
//
// chrome converts a JSONL trace to the Chrome trace-event format on
// stdout, loadable in chrome://tracing or https://ui.perfetto.dev.
//
// serve folds the trace into Prometheus metrics and serves them at
// /metrics in the text exposition format, so a recorded run can be
// inspected with a stock Prometheus/Grafana stack.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"

	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintf(os.Stderr, `Usage:
  traceview summary run.jsonl
  traceview diff a.jsonl b.jsonl
  traceview chrome run.jsonl > run.chrome.json
  traceview serve [-addr :9464] run.jsonl
`)
	return 2
}

func run(args []string) int {
	if len(args) < 1 {
		return usage()
	}
	switch args[0] {
	case "summary":
		if len(args) != 2 {
			return usage()
		}
		return summary(args[1])
	case "diff":
		if len(args) != 3 {
			return usage()
		}
		return diff(args[1], args[2])
	case "chrome":
		if len(args) != 2 {
			return usage()
		}
		return chrome(args[1])
	case "serve":
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		addr := fs.String("addr", ":9464", "listen address for /metrics")
		if err := fs.Parse(args[1:]); err != nil || fs.NArg() != 1 {
			return usage()
		}
		return serve(*addr, fs.Arg(0))
	default:
		fmt.Fprintf(os.Stderr, "traceview: unknown command %q\n", args[0])
		return usage()
	}
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
func summary(path string) int {
	events, err := load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	byType := map[trace.Type]int{}
	var rounds int32 = -1
	var sent, delivered, dropped, delayed, halts, draws int64
	for _, e := range events {
		byType[e.Type]++
		if e.Round > rounds {
			rounds = e.Round
		}
		switch e.Type {
		case trace.EvRoundEnd:
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
	fmt.Printf("%s: %d events, %d rounds (round 0 = Init)\n", path, len(events), rounds+1)
	fmt.Printf("  messages: sent=%d delivered=%d dropped=%d delayed=%d\n", sent, delivered, dropped, delayed)
	fmt.Printf("  nodes:    halts=%d rng-draws=%d\n", halts, draws)
	det := trace.Deterministic(events)
	fmt.Printf("  fingerprint %#x over %d deterministic events\n", trace.Fingerprint(events), len(det))
	types := make([]trace.Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Printf("  %-12s %d\n", t.String(), byType[t])
	}
	return 0
}

// diff bisects two traces and reports the first divergence.
func diff(pathA, pathB string) int {
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	if d := trace.Bisect(a, b); d != nil {
		fmt.Printf("%s\n", d)
		return 1
	}
	fmt.Printf("traces identical: fingerprint %#x\n", trace.Fingerprint(a))
	return 0
}

// chrome converts a JSONL trace to the Chrome trace-event format.
func chrome(path string) int {
	events, err := load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	sink := trace.NewChromeSink(os.Stdout)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	return 0
}

// serve exposes the trace as Prometheus metrics.
func serve(addr, path string) int {
	events, err := load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	m := trace.NewMetrics()
	for _, e := range events {
		m.Emit(e)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Registry().Handler())
	fmt.Printf("serving %s at http://%s/metrics\n", path, addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		return 1
	}
	return 0
}
