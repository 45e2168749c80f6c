package exp

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ScaleBenchEntry is one (driver, worker count) cell of the cores × n
// scaling matrix (the BENCH_scale.json schema). WorkersRequested is the
// configured Options.Workers value and Workers the count the engine
// actually resolved it to (WorkerCount clamps to GOMAXPROCS and n), so a
// row is self-describing even when the request was silently clamped.
type ScaleBenchEntry struct {
	Driver           string `json:"driver"`
	WorkersRequested int    `json:"workers_requested,omitempty"`
	Workers          int    `json:"workers,omitempty"`
	// WallNS is the best-of-reps wall time for one full untraced run.
	WallNS int64 `json:"wall_ns"`
	// SpeedupVsPool1 is wall(pool, 1 worker) / wall(this entry) at the
	// same n; 0 when the size has no single-worker pool row.
	SpeedupVsPool1 float64 `json:"speedup_vs_pool1,omitempty"`
	// Rounds and Messages are the clean run's counters (identical across
	// every row of a size by the determinism guarantee).
	Rounds         int     `json:"rounds"`
	Messages       int64   `json:"messages"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	// Rebalances counts the shard rebalances of the traced clean run
	// (advisory: depends on the worker count; always 0 off the pool).
	Rebalances int64 `json:"rebalances,omitempty"`
	// FingerprintClean / FingerprintFaulted are the deterministic-event
	// fingerprints of one traced clean and one traced faulted run; every
	// row of a size must agree on both (enforced, not just recorded).
	FingerprintClean   string `json:"fingerprint_clean"`
	FingerprintFaulted string `json:"fingerprint_faulted"`
	// FaultedStalled records whether the faulted run hit the round cap
	// (acceptable under message loss, as long as every row stalls
	// identically).
	FaultedStalled bool `json:"faulted_stalled,omitempty"`
}

// ScaleBenchSize is the full driver × workers matrix at one graph size.
type ScaleBenchSize struct {
	N       int               `json:"n"`
	Entries []ScaleBenchEntry `json:"entries"`
}

// ScaleBenchReport is the cores × n scaling trajectory cmd/bench
// -scale-bench writes to BENCH_scale.json. GoMaxProcsAmbient is the
// process value before the bench raised it to cover the widest worker
// request (GoMaxProcsEffective); on a machine with fewer physical cores
// than the widest request, wall-clock speedups are bounded by the cores,
// not the worker count — the ambient value documents that bound.
type ScaleBenchReport struct {
	Algorithm           string           `json:"algorithm"`
	Graph               string           `json:"graph"`
	Seed                uint64           `json:"seed"`
	Reps                int              `json:"reps"`
	NumCPU              int              `json:"num_cpu"`
	GoMaxProcsAmbient   int              `json:"gomaxprocs_ambient"`
	GoMaxProcsEffective int              `json:"gomaxprocs_effective"`
	FaultPlan           string           `json:"fault_plan"`
	Sizes               []ScaleBenchSize `json:"sizes"`
}

// scaleFaultPlan is the fault model for the faulted fingerprint runs: a
// light Bernoulli message drop, enough to exercise the fault stream in
// global sender order without stalling small instances.
func scaleFaultPlan() (faultsim.Plan, string) {
	return faultsim.BernoulliDrop{P: 0.01}, "bernoulli-drop(p=0.01)"
}

// scaleFaultMaxRounds caps the faulted fingerprint runs: Métivier under
// message loss can stall, and an identical stall is still a valid
// cross-config comparison.
const scaleFaultMaxRounds = 300

// RunScaleBench measures the pool driver's multicore scaling on Métivier
// MIS over UnionOfTrees(n, 2): for every n it times the sequential driver
// and the pool at each requested worker count (0 = GOMAXPROCS) and
// fingerprints one traced clean and one traced faulted run per cell. Any fingerprint or
// counter divergence across a size's cells is an error, so the benchmark
// doubles as the cross-worker-count determinism check at production scale.
//
// GOMAXPROCS is raised to the widest worker request for the duration of
// the bench (and restored), so requesting 8 workers measures 8-way
// parallelism wherever the hardware has the cores to back it.
func RunScaleBench(ns []int, workerSet []int, seed uint64, reps int) (*ScaleBenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	widest := 1
	for _, w := range workerSet {
		if w <= 0 {
			w = runtime.NumCPU()
		}
		if w > widest {
			widest = w
		}
	}
	ambient := runtime.GOMAXPROCS(0)
	effective := ambient
	if widest > effective {
		effective = widest
	}
	prev := runtime.GOMAXPROCS(effective)
	defer runtime.GOMAXPROCS(prev)

	plan, planName := scaleFaultPlan()
	report := &ScaleBenchReport{
		Algorithm:           "metivier",
		Graph:               "union-of-trees(alpha=2)",
		Seed:                seed,
		Reps:                reps,
		NumCPU:              runtime.NumCPU(),
		GoMaxProcsAmbient:   ambient,
		GoMaxProcsEffective: effective,
		FaultPlan:           planName,
	}

	for _, n := range ns {
		g := gen.UnionOfTrees(n, 2, rng.New(seed))
		type config struct {
			kind    congest.DriverKind
			workers int // requested; pool only
		}
		configs := []config{{kind: congest.DriverSequential}}
		for _, w := range workerSet {
			configs = append(configs, config{kind: congest.DriverPool, workers: w})
		}

		size := ScaleBenchSize{N: n}
		var refClean, refFaulted string
		var refRes congest.Result
		pool1 := int64(0)
		for _, cfg := range configs {
			entry := ScaleBenchEntry{Driver: cfg.kind.String()}
			if cfg.kind == congest.DriverPool {
				entry.WorkersRequested = cfg.workers
				entry.Workers = congest.Options{Workers: cfg.workers}.WorkerCount(n)
			}
			base := congest.Options{Seed: seed, Driver: cfg.kind, Workers: cfg.workers}

			// Timed runs: untraced, best of reps.
			var best time.Duration
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				_, res, err := metivier.Run(g, base)
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("scale bench: n=%d %s: %w", n, cfg.kind, err)
				}
				if rep == 0 || wall < best {
					best = wall
				}
				entry.Rounds, entry.Messages = res.Rounds, res.Messages
				if size.Entries == nil && rep == 0 {
					refRes = res
				} else if res != refRes {
					return nil, fmt.Errorf("scale bench: n=%d %s diverged: %+v != %+v", n, cfg.kind, res, refRes)
				}
			}
			entry.WallNS = int64(best)
			if secs := best.Seconds(); secs > 0 {
				entry.MessagesPerSec = float64(entry.Messages) / secs
			}

			// Traced clean run: fingerprint + rebalance count.
			cleanFP, rebalances, _, err := scaleTracedRun(g, base)
			if err != nil {
				return nil, fmt.Errorf("scale bench: n=%d %s traced: %w", n, cfg.kind, err)
			}
			entry.FingerprintClean = cleanFP
			entry.Rebalances = rebalances

			// Traced faulted run: same seed, light drops, bounded rounds.
			faulted := base
			faulted.Faults = plan
			faulted.MaxRounds = scaleFaultMaxRounds
			faultedFP, _, stalled, err := scaleTracedRun(g, faulted)
			if err != nil {
				return nil, fmt.Errorf("scale bench: n=%d %s faulted: %w", n, cfg.kind, err)
			}
			entry.FingerprintFaulted = faultedFP
			entry.FaultedStalled = stalled

			if len(size.Entries) == 0 {
				refClean, refFaulted = entry.FingerprintClean, entry.FingerprintFaulted
			} else {
				if entry.FingerprintClean != refClean {
					return nil, fmt.Errorf("scale bench: n=%d %s clean fingerprint %s != %s",
						n, cfg.kind, entry.FingerprintClean, refClean)
				}
				if entry.FingerprintFaulted != refFaulted {
					return nil, fmt.Errorf("scale bench: n=%d %s faulted fingerprint %s != %s",
						n, cfg.kind, entry.FingerprintFaulted, refFaulted)
				}
			}
			if cfg.kind == congest.DriverPool && entry.Workers == 1 {
				pool1 = entry.WallNS
			}
			size.Entries = append(size.Entries, entry)
		}
		if pool1 > 0 {
			for i := range size.Entries {
				if size.Entries[i].WallNS > 0 {
					size.Entries[i].SpeedupVsPool1 = float64(pool1) / float64(size.Entries[i].WallNS)
				}
			}
		}
		report.Sizes = append(report.Sizes, size)
	}
	return report, nil
}

// E19MulticoreScaling runs a reduced cores × workers slice of the scaling
// matrix (DESIGN.md S27): the sequential driver plus the pool at several
// worker counts on one moderate graph size, asserting bit-identical
// fingerprints across every cell while recording the wall-clock curve. The
// full production trajectory (n up to 2^22, BENCH_scale.json) comes from
// `make bench-scale`; this experiment is the in-harness shape check.
func E19MulticoreScaling(c Config) (*Report, error) {
	n := 1 << 16
	workerSet := []int{1, 2, 4, 8}
	reps := 2
	if c.Quick {
		n = 1 << 11
		workerSet = []int{1, 2}
		reps = 1
	}
	seed := rng.New(c.Seed).Split(0xE19).Uint64()
	bench, err := RunScaleBench([]int{n}, workerSet, seed, reps)
	if err != nil {
		return nil, err
	}
	size := bench.Sizes[0]
	table := stats.NewTable(fmt.Sprintf("Multicore scaling — metivier, n=%d, best of %d (cpus=%d)", n, reps, bench.NumCPU),
		"driver", "workers", "wall ms", "speedup", "msgs/s", "rebalances")
	for _, e := range size.Entries {
		table.AddRow(e.Driver, e.Workers, float64(e.WallNS)/1e6, e.SpeedupVsPool1, e.MessagesPerSec, int(e.Rebalances))
	}
	rep := &Report{
		ID:    "E19",
		Title: "the pool driver scales with cores while every worker count fingerprints identically",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"all %d cells agree on clean fingerprint %s and faulted fingerprint %s (enforced: divergence is an error)",
		len(size.Entries), size.Entries[0].FingerprintClean, size.Entries[0].FingerprintFaulted))
	if bench.NumCPU < bench.GoMaxProcsEffective {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"hardware bound: %d physical CPU(s) beneath GOMAXPROCS=%d — wall-clock speedup is capped by cores, not workers; determinism is what this cell matrix certifies",
			bench.NumCPU, bench.GoMaxProcsEffective))
	}
	return rep, nil
}

// rebalanceCounter forwards every event to the recorder and counts the
// advisory rebalance events on the side.
type rebalanceCounter struct {
	rec *trace.Recorder
	n   *int64
}

// Emit counts rebalances and forwards.
func (s rebalanceCounter) Emit(e trace.Event) {
	if e.Type == trace.EvRebalance {
		*s.n++
	}
	s.rec.Emit(e)
}

// scaleTracedRun executes one traced run and returns the deterministic
// fingerprint (hex), the rebalance count, and whether the run stalled at
// the round cap (tolerated only for faulted runs: Métivier is not
// guaranteed to terminate under message loss, and an identical stall is
// still a valid cross-config fingerprint comparison).
func scaleTracedRun(g *graph.Graph, opts congest.Options) (string, int64, bool, error) {
	rec := trace.NewRecorder(0)
	var rebalances int64
	opts.Events = rebalanceCounter{rec: rec, n: &rebalances}
	_, _, err := metivier.Run(g, opts)
	stalled := false
	if err != nil {
		if opts.Faults != nil && errors.Is(err, congest.ErrMaxRounds) {
			stalled = true
		} else {
			return "", 0, false, err
		}
	}
	return fmt.Sprintf("%#016x", rec.Fingerprint()), rebalances, stalled, nil
}
