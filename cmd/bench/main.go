// Command bench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	bench [-quick] [-seeds N] [-seed S] [-only E1,E4,A2] [-parallel] [-workers W] [-format table|csv]
//	bench [-trace run.jsonl] [-trace-format jsonl|chrome] ...
//	bench [-cpuprofile cpu.pprof] [-memprofile mem.pprof] ...
//	bench -list
//
// Each experiment prints its table and notes; the process exits 1 if any
// driver fails, and 2 on a usage error (an unknown flag, -only ID, -format
// or -trace-format), before any experiment runs. With -parallel the runs
// use the sharded worker-pool engine (-workers sets its shard count). With
// -trace every engine run the selected experiments spawn streams its
// execution-trace events to one file — JSONL (replayable with
// cmd/traceview) or the Chrome trace-event format (loadable in
// chrome://tracing).
//
// -cpuprofile and -memprofile write pprof profiles covering the
// experiments the invocation ran; inspect them with `go tool pprof`. The
// memory profile is written at exit with an up-to-date heap picture
// (runtime.GC precedes the write).
//
// The engine's own speed is measured by perfbench (BENCHMARK.json), not
// here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/exp"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick       = fs.Bool("quick", false, "use test-sized sweeps")
		seeds       = fs.Int("seeds", 0, "replications per point (0 = config default)")
		seed        = fs.Uint64("seed", 1, "root seed")
		only        = fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
		parallel    = fs.Bool("parallel", false, "use the sharded worker-pool engine")
		workers     = fs.Int("workers", 0, "worker-pool shard count (0 = GOMAXPROCS)")
		format      = fs.String("format", "table", "output format: table|csv")
		list        = fs.Bool("list", false, "list experiment IDs and exit")
		tracePath   = fs.String("trace", "", "stream every run's execution-trace events to this file")
		traceFormat = fs.String("trace-format", "jsonl", "trace file format: jsonl|chrome")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the invocation to this file (go tool pprof)")
		memprofile  = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	drivers := exp.All()
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: bench [flags]\n\nRegenerates the experiment tables of EXPERIMENTS.md.\n\nExperiments (-only):\n")
		for _, d := range drivers {
			fmt.Fprintf(stderr, "  %-4s %s\n", d.ID, d.Name)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	if *format != "table" && *format != "csv" {
		return usageErr("unknown -format %q; valid formats: table, csv", *format)
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		return usageErr("unknown -trace-format %q; valid formats: jsonl, chrome", *traceFormat)
	}
	var ids []string
	for _, d := range drivers {
		ids = append(ids, d.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return usageErr("unknown experiment %q in -only; valid IDs: %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}

	if *list {
		for _, d := range drivers {
			fmt.Fprintf(stdout, "%-4s %s\n", d.ID, d.Name)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize an up-to-date heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	cfg.Seed = *seed
	if *parallel {
		cfg.Driver = congest.DriverPool
	}
	cfg.Workers = *workers
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		defer f.Close()
		if *traceFormat == "chrome" {
			sink := trace.NewChromeSink(f)
			defer func() {
				if err := sink.Close(); err != nil {
					fmt.Fprintf(stderr, "trace: %v\n", err)
				}
			}()
			cfg.Events = sink
		} else {
			sink := trace.NewJSONLSink(f)
			defer func() {
				if err := sink.Flush(); err != nil {
					fmt.Fprintf(stderr, "trace: %v\n", err)
				}
			}()
			cfg.Events = sink
		}
	}

	failed := 0
	for _, d := range drivers {
		if len(want) > 0 && !want[d.ID] {
			continue
		}
		start := time.Now()
		rep, err := d.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%s (%s): FAILED: %v\n", d.ID, d.Name, err)
			failed++
			continue
		}
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n%s", rep.ID, rep.Title, rep.Table.CSV())
			// Notes carry derived observations (compliance ratios, fit
			// exponents); emit them as comment lines so machine-readable
			// runs keep them.
			for _, note := range rep.Notes {
				fmt.Fprintf(stdout, "# note: %s\n", note)
			}
			fmt.Fprintln(stdout)
		} else {
			fmt.Fprintln(stdout, rep.String())
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", d.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
