// Package exp contains the experiment harness: one driver per experiment
// in DESIGN.md's index (E1-E16, A1-A5). Each driver returns a Report with
// a rendered table and observations; cmd/bench regenerates all of them and
// bench_test.go exposes each as a testing.B benchmark.
//
// The reproduced paper is a brief announcement with no measured evaluation,
// so each experiment targets a numbered theorem/lemma (see DESIGN.md §3 for
// the mapping and the expected shapes). The engine's own speed is measured
// by perfbench (BENCHMARK.json), not here.
package exp

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config controls sweep sizes and reproducibility.
type Config struct {
	// Seed is the root seed; every graph and run derives from it.
	Seed uint64
	// Seeds is the number of replications per configuration point.
	Seeds int
	// Quick shrinks sweeps for tests and smoke runs.
	Quick bool
	// Driver selects the CONGEST driver for the runs (the zero value is
	// sequential).
	Driver congest.DriverKind
	// Workers is the pool driver's shard count (0 = GOMAXPROCS).
	Workers int
	// Events, when non-nil, receives the execution-trace event stream of
	// every run the config spawns (cmd/bench -trace streams them all to
	// one JSONL file).
	Events trace.Sink
}

// DefaultConfig returns the full-size configuration used by cmd/bench.
func DefaultConfig() Config {
	return Config{Seed: 1, Seeds: 5}
}

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config {
	return Config{Seed: 1, Seeds: 2, Quick: true}
}

func (c Config) seeds() int {
	if c.Seeds < 1 {
		return 1
	}
	return c.Seeds
}

// opts builds engine options for replication i of a labeled sub-experiment.
func (c Config) opts(label uint64, i int) congest.Options {
	return congest.Options{
		Seed:    rng.New(c.Seed).Split(label).Split(uint64(i)).Uint64(),
		Driver:  c.Driver,
		Workers: c.Workers,
		Events:  c.Events,
	}
}

// graphRNG derives the generator stream for a labeled sub-experiment.
func (c Config) graphRNG(label uint64, i int) *rng.RNG {
	return rng.New(c.Seed).Split(^label).Split(uint64(i))
}

// Report is the output of one experiment driver.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E1").
	ID string
	// Title restates the claim under test.
	Title string
	// Table is the regenerated table.
	Table *stats.Table
	// Notes carries derived observations (fits, pass/fail of the shape).
	Notes []string
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Driver is an experiment entry point.
type Driver struct {
	ID   string
	Name string
	Run  func(Config) (*Report, error)
}

// All returns every experiment driver in DESIGN.md order.
func All() []Driver {
	return []Driver{
		{ID: "E1", Name: "rounds-vs-n", Run: E1RoundsVsN},
		{ID: "E2", Name: "rounds-vs-arboricity", Run: E2RoundsVsArboricity},
		{ID: "E3", Name: "bad-node-probability", Run: E3BadNodeProbability},
		{ID: "E4", Name: "shattering", Run: E4Shattering},
		{ID: "E5", Name: "invariant", Run: E5Invariant},
		{ID: "E6", Name: "conjunction-bound", Run: E6ConjunctionBound},
		{ID: "E7", Name: "tail-bound", Run: E7TailBound},
		{ID: "E8", Name: "event-families", Run: E8Events},
		{ID: "E9", Name: "message-size", Run: E9MessageSize},
		{ID: "E10", Name: "cole-vishkin", Run: E10ColeVishkin},
		{ID: "E11", Name: "forest-decomposition", Run: E11ForestDecomp},
		{ID: "E12", Name: "algorithm-comparison", Run: E12Comparison},
		{ID: "E13", Name: "degree-reduction", Run: E13DegreeReduction},
		{ID: "E14", Name: "round-decay", Run: E14RoundDecay},
		{ID: "E15", Name: "maximal-matching", Run: E15Matching},
		{ID: "E16", Name: "fault-tolerance", Run: E16FaultTolerance},
		{ID: "A1", Name: "rho-opt-out", Run: A1RhoOptOut},
		{ID: "A2", Name: "param-profiles", Run: A2ParamProfiles},
		{ID: "A3", Name: "scale-sensitivity", Run: A3ScaleSensitivity},
		{ID: "A4", Name: "reliability", Run: A4Reliability},
		{ID: "A5", Name: "bad-finisher", Run: A5BadFinisher},
	}
}

// sqrtLogShape returns √(log₂ n · log₂ log₂ n), the paper's target growth.
func sqrtLogShape(n int) float64 {
	l := math.Log2(float64(n))
	if l < 2 {
		l = 2
	}
	return math.Sqrt(l * math.Log2(l))
}

// arbGraph generates the workhorse arboricity-α instance.
func arbGraph(n, alpha int, r *rng.RNG) *graph.Graph {
	return gen.UnionOfTrees(n, alpha, r)
}

// practicalArbMIS runs ArbMIS with practical parameters on g.
func practicalArbMIS(g *graph.Graph, alpha int, opts congest.Options) (*core.Outcome, error) {
	params := core.PracticalParams(alpha, g.MaxDegree())
	return core.ArbMIS(g, params, opts)
}
