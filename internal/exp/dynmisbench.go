package exp

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/congest"
	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DynmisBenchEntry is one (family, n) row of the dynamic-MIS benchmark
// (the BENCH_dynmis.json schema): incremental-repair throughput against
// the full-recompute baseline on the same update stream, plus the
// repaired-region size distribution — the dynamic analogue of the paper's
// residual-component bound — and the cross-driver stream fingerprint.
type DynmisBenchEntry struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Batches/Updates describe the stream (bootstrap excluded).
	Batches int `json:"batches"`
	Updates int `json:"updates"`
	// BootstrapNS is the initial full compute; ApplyNS the wall time of
	// the whole incremental stream after it.
	BootstrapNS int64 `json:"bootstrap_ns"`
	ApplyNS     int64 `json:"apply_ns"`
	// UpdatesPerSec is incremental-repair throughput; RecomputePerSec the
	// full-recompute baseline's (sampled: snapshot + full Métivier run per
	// batch); Speedup their ratio.
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	RecomputePerSec float64 `json:"recompute_per_sec"`
	Speedup         float64 `json:"speedup"`
	// RecomputeSampled is the number of batches the baseline timed.
	RecomputeSampled int `json:"recompute_sampled"`
	// Region size distribution across the stream's repairs (bootstrap
	// excluded); RegionZero counts batches that needed no repair at all.
	RegionMean float64 `json:"region_mean"`
	RegionP50  int     `json:"region_p50"`
	RegionP90  int     `json:"region_p90"`
	RegionMax  int     `json:"region_max"`
	RegionZero int     `json:"region_zero"`
	// Fingerprint is the stream fingerprint after the last batch, identical
	// across the sequential and pool drivers (enforced, not just recorded).
	Fingerprint string `json:"fingerprint"`
	// MISSize is the maintained set's final size.
	MISSize int `json:"mis_size"`
}

// DynmisBenchReport is what cmd/bench -dynmis-bench writes to
// BENCH_dynmis.json.
type DynmisBenchReport struct {
	Seed      uint64  `json:"seed"`
	BatchSize int     `json:"batch_size"`
	Locality  float64 `json:"locality"`
	Churn     float64 `json:"churn"`
	NumCPU    int     `json:"num_cpu"`
	// MinSpeedup is the acceptance bar enforced on rows with n >=
	// MinSpeedupN (0 = record only).
	MinSpeedup  float64            `json:"min_speedup,omitempty"`
	MinSpeedupN int                `json:"min_speedup_n,omitempty"`
	Entries     []DynmisBenchEntry `json:"entries"`
}

// DynmisBenchCase names one (family, n, batches) cell of the sweep.
type DynmisBenchCase struct {
	Family  string
	N       int
	Batches int
}

// dynmisBenchGraph builds the base graph for a benchmark case.
func dynmisBenchGraph(family string, n int, r *rng.RNG) (*graph.Graph, error) {
	switch family {
	case "tree":
		return gen.RandomTree(n, r), nil
	case "union":
		return gen.UnionOfTrees(n, 2, r), nil
	case "gnp":
		return gen.GNP(n, 4/float64(n), r), nil
	default:
		return nil, fmt.Errorf("dynmis bench: unknown family %q", family)
	}
}

// dynmisRecomputeSamples caps how many batches the full-recompute baseline
// times: a full Métivier run per sampled batch is the expensive half of
// the benchmark, and a handful of samples pins the per-batch cost tightly
// (full runs on near-identical graphs have tiny variance).
const dynmisRecomputeSamples = 8

// RunDynmisBench measures the dynamic-MIS engine on generated update
// streams: for every case it bootstraps an engine, replays the stream
// timing the incremental repairs, replays it again on the pool driver
// (enforcing a bit-identical stream fingerprint), and times the
// full-recompute baseline — snapshot the live graph, run Métivier from
// scratch — on a sample of the same batches. minSpeedup, when positive, is
// enforced on every row with n >= minSpeedupN: incremental repair must
// beat full recomputation by at least that factor or the bench errors.
func RunDynmisBench(cases []DynmisBenchCase, cfg dynmis.StreamConfig, seed uint64, minSpeedup float64, minSpeedupN int) (*DynmisBenchReport, error) {
	report := &DynmisBenchReport{
		Seed:        seed,
		BatchSize:   cfg.BatchSize,
		Locality:    cfg.Locality,
		Churn:       cfg.Churn,
		NumCPU:      runtime.NumCPU(),
		MinSpeedup:  minSpeedup,
		MinSpeedupN: minSpeedupN,
	}
	for ci, bc := range cases {
		caseCfg := cfg
		caseCfg.Batches = bc.Batches
		root := rng.New(seed).Split(0xE20).Split(uint64(ci))
		g, err := dynmisBenchGraph(bc.Family, bc.N, root.Split(1))
		if err != nil {
			return nil, err
		}
		batches, err := dynmis.UpdateStream(g, caseCfg, root.Split(2))
		if err != nil {
			return nil, fmt.Errorf("dynmis bench: %s n=%d stream: %w", bc.Family, bc.N, err)
		}
		engineSeed := root.Split(3).Uint64()

		entry := DynmisBenchEntry{Family: bc.Family, N: g.N(), M: g.M(), Batches: len(batches)}

		// Sequential engine: the timed run.
		start := time.Now()
		e, err := dynmis.New(g, dynmis.Options{Seed: engineSeed})
		if err != nil {
			return nil, fmt.Errorf("dynmis bench: %s n=%d bootstrap: %w", bc.Family, bc.N, err)
		}
		entry.BootstrapNS = int64(time.Since(start))
		regions := make([]int, 0, len(batches))
		start = time.Now()
		for bi, b := range batches {
			rep, err := e.Apply(b)
			if err != nil {
				return nil, fmt.Errorf("dynmis bench: %s n=%d batch %d: %w", bc.Family, bc.N, bi, err)
			}
			entry.Updates += rep.Updates
			regions = append(regions, rep.Region)
			if rep.Region == 0 {
				entry.RegionZero++
			}
		}
		applyWall := time.Since(start)
		entry.ApplyNS = int64(applyWall)
		if secs := applyWall.Seconds(); secs > 0 {
			entry.UpdatesPerSec = float64(entry.Updates) / secs
		}
		entry.Fingerprint = fmt.Sprintf("%#016x", e.Fingerprint())
		entry.MISSize = len(e.MIS())

		// Pool engine: untimed, fingerprint must match the sequential run.
		ep, err := dynmis.New(g, dynmis.Options{Seed: engineSeed, Driver: congest.DriverPool})
		if err != nil {
			return nil, fmt.Errorf("dynmis bench: %s n=%d pool bootstrap: %w", bc.Family, bc.N, err)
		}
		for bi, b := range batches {
			if _, err := ep.Apply(b); err != nil {
				return nil, fmt.Errorf("dynmis bench: %s n=%d pool batch %d: %w", bc.Family, bc.N, bi, err)
			}
		}
		if poolFP := fmt.Sprintf("%#016x", ep.Fingerprint()); poolFP != entry.Fingerprint {
			return nil, fmt.Errorf("dynmis bench: %s n=%d pool fingerprint %s != sequential %s",
				bc.Family, bc.N, poolFP, entry.Fingerprint)
		}

		// Full-recompute baseline: replay the stream on a bare DGraph and,
		// on a spread sample of batches, snapshot + full Métivier run.
		d := dynmis.NewDGraph(g)
		sample := dynmisRecomputeSamples
		if sample > len(batches) {
			sample = len(batches)
		}
		stride := 1
		if sample > 0 {
			stride = len(batches) / sample
		}
		var recomputeWall time.Duration
		sampledUpdates := 0
		for bi, b := range batches {
			for _, u := range b {
				if err := applyToDGraph(d, u); err != nil {
					return nil, fmt.Errorf("dynmis bench: %s n=%d baseline batch %d: %w", bc.Family, bc.N, bi, err)
				}
			}
			if stride == 0 || bi%stride != 0 || entry.RecomputeSampled >= sample {
				continue
			}
			start = time.Now()
			snap, _ := d.Snapshot()
			if _, _, err := metivier.Run(snap, recomputeOptions(engineSeed, bi)); err != nil {
				return nil, fmt.Errorf("dynmis bench: %s n=%d recompute batch %d: %w", bc.Family, bc.N, bi, err)
			}
			recomputeWall += time.Since(start)
			sampledUpdates += len(b)
			entry.RecomputeSampled++
		}
		if secs := recomputeWall.Seconds(); secs > 0 && sampledUpdates > 0 {
			entry.RecomputePerSec = float64(sampledUpdates) / secs
		}
		if entry.RecomputePerSec > 0 {
			entry.Speedup = entry.UpdatesPerSec / entry.RecomputePerSec
		}

		sort.Ints(regions)
		if len(regions) > 0 {
			sum := 0
			for _, r := range regions {
				sum += r
			}
			entry.RegionMean = float64(sum) / float64(len(regions))
			entry.RegionP50 = regions[len(regions)/2]
			entry.RegionP90 = regions[len(regions)*9/10]
			entry.RegionMax = regions[len(regions)-1]
		}

		if minSpeedup > 0 && entry.N >= minSpeedupN && entry.Speedup < minSpeedup {
			return nil, fmt.Errorf("dynmis bench: %s n=%d speedup %.1fx below the %.0fx acceptance bar",
				bc.Family, bc.N, entry.Speedup, minSpeedup)
		}
		report.Entries = append(report.Entries, entry)
	}
	return report, nil
}

// recomputeOptions builds the baseline run's options; the seed derivation
// mirrors the engine's per-batch scheme so baseline runs are themselves
// deterministic.
func recomputeOptions(seed uint64, batch int) congest.Options {
	return congest.Options{Seed: rng.New(seed).Split(uint64(batch)).Uint64()}
}

// applyToDGraph mirrors one update onto the baseline's bare graph.
func applyToDGraph(d *dynmis.DGraph, u dynmis.Update) error {
	switch u.Op {
	case dynmis.OpInsertEdge:
		return d.InsertEdge(u.U, u.V)
	case dynmis.OpRemoveEdge:
		return d.RemoveEdge(u.U, u.V)
	case dynmis.OpInsertNode:
		id := d.InsertNode()
		if u.U >= 0 && u.U != id {
			return fmt.Errorf("expected node ID %d, allocated %d", u.U, id)
		}
		return nil
	case dynmis.OpRemoveNode:
		_, err := d.RemoveNode(u.U)
		return err
	default:
		return fmt.Errorf("invalid op %v", u.Op)
	}
}

// E20DynamicUpdates is the in-harness slice of the dynamic-MIS benchmark
// (DESIGN.md S28): incremental repair versus full recomputation on a
// low-locality update stream, with the repaired-region size distribution
// and the cross-driver fingerprint check. The full trajectory (n up to
// 2^16 with the 10x acceptance bar enforced) comes from `make
// bench-dynmis`; the quick config is the smoke-test slice.
func E20DynamicUpdates(c Config) (*Report, error) {
	cases := []DynmisBenchCase{
		{Family: "tree", N: 1 << 12, Batches: 48},
		{Family: "union", N: 1 << 14, Batches: 48},
	}
	cfg := dynmis.StreamConfig{BatchSize: 16, Locality: 0, Churn: 0.05}
	if c.Quick {
		cases = []DynmisBenchCase{{Family: "tree", N: 1 << 8, Batches: 12}}
		cfg.BatchSize = 8
	}
	seed := rng.New(c.Seed).Split(0xE20).Uint64()
	bench, err := RunDynmisBench(cases, cfg, seed, 0, 0)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(fmt.Sprintf("Dynamic updates — incremental repair vs full recompute (batch=%d, locality=%v, churn=%v)",
		cfg.BatchSize, cfg.Locality, cfg.Churn),
		"family", "n", "updates/s", "recompute/s", "speedup", "region mean", "p90", "max")
	for _, e := range bench.Entries {
		table.AddRow(e.Family, e.N, e.UpdatesPerSec, e.RecomputePerSec, e.Speedup, e.RegionMean, e.RegionP90, e.RegionMax)
	}
	rep := &Report{
		ID:    "E20",
		Title: "incremental repair tracks the update's local consequences, not the graph",
		Table: table,
	}
	for _, e := range bench.Entries {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s n=%d: stream fingerprint %s identical across sequential and pool drivers (enforced); mean region %.1f of %d vertices",
			e.Family, e.N, e.Fingerprint, e.RegionMean, e.N))
	}
	return rep, nil
}
