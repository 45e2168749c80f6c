package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/distrib"
	"repro/internal/exp"
)

// TestMain lets this test binary double as the misnode worker: the E21
// benchmark spawns self-exec fleets, which re-run the binary with the
// worker socket in the environment.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// One benchmark per experiment in DESIGN.md's index. Each runs the driver
// at test size (cmd/bench runs the full sweeps) and reports the wall cost
// of regenerating the table. `go test -bench=. -benchmem` therefore touches
// every table and figure of EXPERIMENTS.md.

func benchDriver(b *testing.B, id string) {
	b.Helper()
	var driver *exp.Driver
	for _, d := range exp.All() {
		if d.ID == id {
			d := d
			driver = &d
			break
		}
	}
	if driver == nil {
		b.Fatalf("no driver %s", id)
	}
	cfg := exp.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := driver.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Table.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1RoundsVsN(b *testing.B)          { benchDriver(b, "E1") }
func BenchmarkE2RoundsVsArboricity(b *testing.B) { benchDriver(b, "E2") }
func BenchmarkE3BadNodeProbability(b *testing.B) { benchDriver(b, "E3") }
func BenchmarkE4Shattering(b *testing.B)         { benchDriver(b, "E4") }
func BenchmarkE5Invariant(b *testing.B)          { benchDriver(b, "E5") }
func BenchmarkE6ConjunctionBound(b *testing.B)   { benchDriver(b, "E6") }
func BenchmarkE7TailBound(b *testing.B)          { benchDriver(b, "E7") }
func BenchmarkE8Events(b *testing.B)             { benchDriver(b, "E8") }
func BenchmarkE9MessageSize(b *testing.B)        { benchDriver(b, "E9") }
func BenchmarkE10ColeVishkin(b *testing.B)       { benchDriver(b, "E10") }
func BenchmarkE11ForestDecomp(b *testing.B)      { benchDriver(b, "E11") }
func BenchmarkE12Comparison(b *testing.B)        { benchDriver(b, "E12") }
func BenchmarkE13DegreeReduction(b *testing.B)   { benchDriver(b, "E13") }
func BenchmarkE14RoundDecay(b *testing.B)        { benchDriver(b, "E14") }
func BenchmarkE15Matching(b *testing.B)          { benchDriver(b, "E15") }
func BenchmarkE16FaultTolerance(b *testing.B)    { benchDriver(b, "E16") }
func BenchmarkE17TraceOverhead(b *testing.B)     { benchDriver(b, "E17") }
func BenchmarkE18AllocProfile(b *testing.B)      { benchDriver(b, "E18") }
func BenchmarkE19MulticoreScaling(b *testing.B)  { benchDriver(b, "E19") }
func BenchmarkE20DynamicUpdates(b *testing.B)    { benchDriver(b, "E20") }
func BenchmarkE21DistributedDriver(b *testing.B) { benchDriver(b, "E21") }
func BenchmarkA1RhoOptOut(b *testing.B)          { benchDriver(b, "A1") }
func BenchmarkA2ParamProfiles(b *testing.B)      { benchDriver(b, "A2") }
func BenchmarkA3ScaleSensitivity(b *testing.B)   { benchDriver(b, "A3") }
func BenchmarkA4Reliability(b *testing.B)        { benchDriver(b, "A4") }
func BenchmarkA5BadFinisher(b *testing.B)        { benchDriver(b, "A5") }

// Micro-benchmarks: single-algorithm runs on a fixed graph, reporting
// CONGEST rounds alongside wall time.

func benchAlgo(b *testing.B, run func(*Graph, Options) ([]bool, Result, error)) {
	b.Helper()
	g := UnionOfTrees(1<<12, 3, 99)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := run(g, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkAlgoMetivier(b *testing.B) { benchAlgo(b, Metivier) }
func BenchmarkAlgoLubyA(b *testing.B)    { benchAlgo(b, LubyA) }
func BenchmarkAlgoLubyB(b *testing.B)    { benchAlgo(b, LubyB) }
func BenchmarkAlgoGhaffari(b *testing.B) { benchAlgo(b, Ghaffari) }

func BenchmarkAlgoArbMIS(b *testing.B) {
	g := UnionOfTrees(1<<12, 3, 99)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ComputeMIS(g, 3, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = out.TotalRounds()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// benchEngineDriver runs Métivier MIS under one engine driver, reporting
// ns/round so drivers are comparable even if round counts drift with seed.
func benchEngineDriver(b *testing.B, g *Graph, opts Options) {
	b.Helper()
	var rounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i)
		_, res, err := Metivier(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Rounds)
	}
	b.StopTimer()
	if rounds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	}
}

// BenchmarkEngineDrivers compares the two in-process execution strategies
// on the same workload at n = 2^11 and n = 2^14 (see BENCH_congest.json for
// the recorded trajectory).
func BenchmarkEngineDrivers(b *testing.B) {
	for _, n := range []int{1 << 11, 1 << 14} {
		g := UnionOfTrees(n, 2, 7)
		b.Run(fmt.Sprintf("n=%d/sequential", n), func(b *testing.B) {
			benchEngineDriver(b, g, Options{Driver: DriverSequential})
		})
		b.Run(fmt.Sprintf("n=%d/pool", n), func(b *testing.B) {
			benchEngineDriver(b, g, Options{Driver: DriverPool})
		})
	}
}
