// E21 and the BENCH_dist.json producer: the distributed multi-process
// driver measured against the sequential reference. Every fleet shape
// must reproduce the sequential run bit-for-bit — deterministic trace
// fingerprint and Result counters, clean and faulted — while the report
// records what determinism costs in transport terms (frame bytes and
// round-trip latency per round).
package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DistBenchEntry is one fleet shape's measurement.
type DistBenchEntry struct {
	// Shards is the worker-process count; Transport and Socket name the
	// resolved topology (unix socket fleets report their socket path).
	// Socket labels the report's rows but is left out of the JSON: each
	// fleet's path is random, and the artefact must not change with it.
	Shards    int    `json:"shards"`
	Transport string `json:"transport"`
	Socket    string `json:"-"`
	// WallNS is the best clean-run wall time across reps.
	WallNS int64 `json:"wall_ns"`
	// Rounds and Messages are the clean run's counters (identical to the
	// sequential reference by the determinism contract).
	Rounds         int     `json:"rounds"`
	Messages       int64   `json:"messages"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	// SpeedupVsSequential compares the clean wall time against the
	// sequential reference (below 1 = the socket hop costs more than the
	// parallel sweeps buy, expected at small n).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// FrameBytes is the total coordinator↔worker transport volume of the
	// clean run; FrameBytesPerRound normalizes it.
	FrameBytes         int64   `json:"frame_bytes"`
	FrameBytesPerRound float64 `json:"frame_bytes_per_round"`
	// MeanRTTNanos is the mean per-shard frame round-trip of the clean run.
	MeanRTTNanos int64 `json:"mean_rtt_ns"`
	// FingerprintClean/Faulted are the deterministic trace fingerprints;
	// the Match fields record equality with the sequential reference.
	FingerprintClean   string `json:"fingerprint_clean"`
	FingerprintFaulted string `json:"fingerprint_faulted"`
	CleanMatch         bool   `json:"clean_match"`
	FaultedMatch       bool   `json:"faulted_match"`
}

// DistBenchReport is the BENCH_dist.json payload.
type DistBenchReport struct {
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	Algorithm  string `json:"algorithm"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// SequentialWallNS and the sequential fingerprints anchor every entry.
	SequentialWallNS           int64            `json:"sequential_wall_ns"`
	SequentialFingerprint      string           `json:"sequential_fingerprint"`
	SequentialFingerprintFault string           `json:"sequential_fingerprint_faulted"`
	Entries                    []DistBenchEntry `json:"entries"`
}

// frameStats accumulates the advisory EvFrame measurements of one run.
type frameStats struct {
	frames int64
	bytes  int64
	rtt    int64
}

// Emit implements trace.Sink.
func (f *frameStats) Emit(e trace.Event) {
	if e.Type != trace.EvFrame {
		return
	}
	f.frames++
	f.bytes += e.X + e.Y
	f.rtt += e.Z
}

// fanoutSink forwards one event stream to several sinks.
type fanoutSink []trace.Sink

// Emit implements trace.Sink.
func (s fanoutSink) Emit(e trace.Event) {
	for _, x := range s {
		x.Emit(e)
	}
}

// distBenchPlan is the seed-pinned faulted leg: drops plus a crash window
// spread, the same fault families the golden suites pin.
func distBenchPlan(n int) faultsim.Plan {
	return faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.02},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			1:     {Down: 2, Up: 9},
			n / 2: {Down: 3, Up: 0},
		}),
	)
}

// distFingerprint runs one configuration and returns the deterministic
// trace fingerprint with the run result.
func distFingerprint(g *graph.Graph, opts congest.Options, factory func(int) congest.Node) (uint64, congest.Result, error) {
	rec := trace.NewRecorder(1)
	opts.Events = rec
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	return rec.Fingerprint(), res, err
}

// RunDistBench measures the distributed driver across fleet shapes on a
// seed-pinned Métivier workload and reports transport volume, latency,
// and fingerprint equality with the sequential driver (clean and
// faulted). A fingerprint mismatch is an error, not a report entry: the
// bench doubles as the cross-process determinism gate.
func RunDistBench(n int, shardSet []int, seed uint64, reps int) (*DistBenchReport, error) {
	if n < 2 {
		return nil, fmt.Errorf("dist bench: n must be at least 2, got %d", n)
	}
	if len(shardSet) == 0 {
		return nil, fmt.Errorf("dist bench: empty shard set")
	}
	for _, s := range shardSet {
		if s < 1 {
			return nil, fmt.Errorf("dist bench: shard count must be positive, got %d", s)
		}
	}
	if reps < 1 {
		reps = 1
	}
	g := gen.UnionOfTrees(n, 2, rng.New(seed))
	prog := distrib.Program{Algorithm: "metivier"}
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		return nil, err
	}
	plan := distBenchPlan(n)

	report := &DistBenchReport{
		N: n, Seed: seed, Algorithm: prog.Algorithm, GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Sequential reference: fingerprints and the wall-time anchor.
	seqStart := time.Now()
	seqFP, seqRes, err := distFingerprint(g, congest.Options{Seed: seed}, factory)
	if err != nil {
		return nil, fmt.Errorf("dist bench: sequential: %w", err)
	}
	report.SequentialWallNS = time.Since(seqStart).Nanoseconds()
	report.SequentialFingerprint = fmt.Sprintf("%#x", seqFP)
	seqFPFault, _, err := distFingerprint(g, congest.Options{Seed: seed, Faults: plan, MaxRounds: 4 * n}, factory)
	if err != nil {
		return nil, fmt.Errorf("dist bench: sequential faulted: %w", err)
	}
	report.SequentialFingerprintFault = fmt.Sprintf("%#x", seqFPFault)

	for _, shards := range shardSet {
		entry := DistBenchEntry{Shards: shards}
		var bestWall int64
		var bestFrames frameStats
		var cleanFP uint64
		var cleanRes congest.Result
		for rep := 0; rep < reps; rep++ {
			fleet, err := distrib.NewExecFleet(g, prog, shards)
			if err != nil {
				return nil, fmt.Errorf("dist bench: fleet(%d): %w", shards, err)
			}
			entry.Transport = fleet.Transport()
			entry.Socket = fleet.Socket()
			rec := trace.NewRecorder(1)
			frames := &frameStats{}
			opts := congest.Options{
				Seed: seed, Driver: congest.DriverDistributed, Fleet: fleet,
				Events: fanoutSink{rec, frames}, EventTiming: true,
			}
			start := time.Now()
			r := congest.NewRunner(g, factory, opts)
			res, err := r.Run()
			wall := time.Since(start).Nanoseconds()
			fleet.Close()
			if err != nil {
				return nil, fmt.Errorf("dist bench: shards=%d: %w", shards, err)
			}
			if rep == 0 || wall < bestWall {
				bestWall, bestFrames = wall, *frames
			}
			if rep > 0 && rec.Fingerprint() != cleanFP {
				return nil, fmt.Errorf("dist bench: shards=%d: fingerprint drifted across reps (%#x vs %#x)",
					shards, rec.Fingerprint(), cleanFP)
			}
			cleanFP, cleanRes = rec.Fingerprint(), res
		}
		entry.WallNS = bestWall
		entry.Rounds = cleanRes.Rounds
		entry.Messages = cleanRes.Messages
		if bestWall > 0 {
			entry.MessagesPerSec = float64(cleanRes.Messages) / (float64(bestWall) / 1e9)
			entry.SpeedupVsSequential = float64(report.SequentialWallNS) / float64(bestWall)
		}
		entry.FrameBytes = bestFrames.bytes
		if cleanRes.Rounds > 0 {
			entry.FrameBytesPerRound = float64(bestFrames.bytes) / float64(cleanRes.Rounds)
		}
		if bestFrames.frames > 0 {
			entry.MeanRTTNanos = bestFrames.rtt / bestFrames.frames
		}
		entry.FingerprintClean = fmt.Sprintf("%#x", cleanFP)
		entry.CleanMatch = cleanFP == seqFP && cleanRes == seqRes
		if !entry.CleanMatch {
			return nil, fmt.Errorf("dist bench: shards=%d: clean run diverged from sequential (fp %s vs %s)",
				shards, entry.FingerprintClean, report.SequentialFingerprint)
		}

		// Faulted leg: one run per shape, fingerprint-gated.
		fleet, err := distrib.NewExecFleet(g, prog, shards)
		if err != nil {
			return nil, fmt.Errorf("dist bench: faulted fleet(%d): %w", shards, err)
		}
		rec := trace.NewRecorder(1)
		opts := congest.Options{
			Seed: seed, Faults: plan, MaxRounds: 4 * n,
			Driver: congest.DriverDistributed, Fleet: fleet, Events: rec,
		}
		r := congest.NewRunner(g, factory, opts)
		_, err = r.Run()
		fleet.Close()
		if err != nil {
			return nil, fmt.Errorf("dist bench: faulted shards=%d: %w", shards, err)
		}
		entry.FingerprintFaulted = fmt.Sprintf("%#x", rec.Fingerprint())
		entry.FaultedMatch = rec.Fingerprint() == seqFPFault
		if !entry.FaultedMatch {
			return nil, fmt.Errorf("dist bench: shards=%d: faulted run diverged from sequential (fp %s vs %s)",
				shards, entry.FingerprintFaulted, report.SequentialFingerprintFault)
		}
		report.Entries = append(report.Entries, entry)
	}
	return report, nil
}

// E21DistributedDriver is the experiment-table view of the distributed
// driver: fleet shapes against the sequential reference, with transport
// cost per round and the fingerprint verdicts.
func E21DistributedDriver(cfg Config) (*Report, error) {
	n := 1 << 10
	shardSet := []int{1, 2, 4, 8}
	if cfg.Quick {
		n = 192
		shardSet = []int{2, 3}
	}
	seed := cfg.opts(21, 0).Seed
	report, err := RunDistBench(n, shardSet, seed, 1)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(
		fmt.Sprintf("distributed driver vs sequential, metivier, n=%d", n),
		"shards", "transport", "rounds", "messages", "frameKB/round", "rtt µs", "clean", "faulted")
	for _, e := range report.Entries {
		verdict := func(ok bool) string {
			if ok {
				return "match"
			}
			return "DIVERGED"
		}
		table.AddRow(e.Shards, e.Transport, e.Rounds, e.Messages,
			fmt.Sprintf("%.1f", e.FrameBytesPerRound/1024),
			fmt.Sprintf("%.0f", float64(e.MeanRTTNanos)/1e3),
			verdict(e.CleanMatch), verdict(e.FaultedMatch))
	}
	return &Report{
		ID:    "E21",
		Title: "distributed multi-process driver: bit-identical with sequential over sockets",
		Table: table,
		Notes: []string{
			fmt.Sprintf("deterministic fingerprint %s reproduced by every fleet shape, clean and faulted (plan: drop 2%% + crash windows)",
				report.SequentialFingerprint),
			"fault/RNG draws stay on the coordinator in global sender order; workers are pure functions of (config, input sequence)",
		},
	}, nil
}
