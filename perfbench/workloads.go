package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/dynmis"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
)

// concurrency is the pool driver's worker count and the fleet's shard
// count, fixed so that every machine runs the same workload.
const concurrency = 2

// sizes fixes the inputs of the four workloads; tests use tinySizes.
type sizes struct {
	arbN, poolN, dynN, distN int
	streamBatches            int
}

var fullSizes = sizes{arbN: 1 << 16, poolN: 1 << 17, dynN: 1 << 16, distN: 1 << 14, streamBatches: 1 << 14}

// Labels of the input streams split from the workload seed. Op i draws
// its seed from Split(i), so input labels sit far above any op index.
const (
	inputLabel  = 1 << 63
	streamLabel = 1<<63 + 1
)

// inputRNG is the generator for a workload's fixed input.
func inputRNG(seed uint64) *rng.RNG { return rng.New(seed).Split(inputLabel) }

// opSeed is op i's engine seed: Split(i) of the workload seed.
func opSeed(seed uint64, i int) uint64 { return rng.New(seed).Split(uint64(i)).Uint64() }

// workload is one benchmark input and op. Setup builds the input from the
// workload seed; the closed loop then runs op 1, 2, ... after an untimed
// warm-up op 0.
type workload struct {
	name  string
	setup func(seed uint64, sz sizes, phases *acc) (instance, error)
}

// digestOps is how many ops, from op 0, feed the digest of a workload
// whose ops are independent runs.
const digestOps = 3

// instance is a set-up workload.
type instance interface {
	// op runs op i and returns its timed interval; tr is nil when the op
	// runs untraced.
	op(i int, tr *opTrace) (opSample, error)
	// check verifies op i's output off the clock and folds it into the
	// digest.
	check(i int, tr *opTrace) error
	// digest is the fold over the outputs of the first digestLen ops.
	digest() uint64
	// digestLen is how many ops the digest covers; a run always
	// completes at least that many.
	digestLen() int
	// inputs describes the generated input.
	inputs() inputRecord
	// close releases the instance; an error is a failed run.
	close() error
}

// opSample is one op's timed interval and engine rounds.
type opSample struct {
	start, end time.Time
	rounds     int
}

// inputRecord describes one workload's input for the info line. The
// working set is computed, not measured: the CSR arrays plus an inbox
// arena of one message per edge direction.
type inputRecord struct {
	N               int    `json:"n"`
	M               int    `json:"m"`
	WorkingSetBytes int    `json:"working_set_bytes_computed"`
	Detail          string `json:"detail"`
}

// graphRecord fills the size fields for g.
func graphRecord(g *graph.Graph, detail string) inputRecord {
	const word = 8
	csr := word * (g.N() + 1 + 2*g.M())
	inbox := messageBytes * 2 * g.M()
	return inputRecord{N: g.N(), M: g.M(), WorkingSetBytes: csr + inbox, Detail: detail}
}

var workloads = []workload{
	{name: "arbmis", setup: setupArbMIS},
	{name: "metivier-pool", setup: setupPool},
	{name: "dynmis-stream", setup: setupStream},
	{name: "dist-faulted", setup: setupDist},
}

// lookup finds a workload by name.
func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedGraph generates a graph and records gen.graph_ms.
func timedGraph(phases *acc, build func() *graph.Graph) *graph.Graph {
	t0 := time.Now()
	g := build()
	phases.add("gen.graph_ms", ms(time.Since(t0)))
	return g
}

// foldStatuses folds an MIS output into d.
func foldStatuses(d digest, st []base.Status) digest {
	for _, s := range st {
		d = d.word(uint64(s))
	}
	return d
}

// foldResult folds an engine result into d.
func foldResult(d digest, r congest.Result) digest {
	return d.word(uint64(r.Rounds)).word(uint64(r.Messages)).word(uint64(r.TotalBits)).
		word(uint64(r.MaxMessageBits)).word(uint64(r.Dropped)).word(uint64(r.Delayed))
}

// ---- arbmis ----

// arbMIS runs the paper's pipeline, core.ArbMIS, on the sequential driver.
type arbMIS struct {
	g      *graph.Graph
	params *core.Params
	seed   uint64
	out    *core.Outcome
	d      digest
}

func setupArbMIS(seed uint64, sz sizes, phases *acc) (instance, error) {
	const alpha = 3
	g := timedGraph(phases, func() *graph.Graph { return gen.UnionOfTrees(sz.arbN, alpha, inputRNG(seed)) })
	params := core.PracticalParams(alpha, g.MaxDegree())
	return &arbMIS{g: g, params: params, seed: seed, d: newDigest()}, nil
}

func (w *arbMIS) inputs() inputRecord {
	return graphRecord(w.g, fmt.Sprintf("union of %d random trees, Δ=%d", w.params.Alpha, w.params.Delta))
}

// stageNames are core.ArbMIS's stages in execution order.
var stageNames = []string{"alg1", "vlo", "vhi", "bad"}

func (w *arbMIS) op(i int, tr *opTrace) (opSample, error) {
	opts := congest.Options{Seed: opSeed(w.seed, i), Driver: congest.DriverSequential}
	if tr != nil {
		opts.Events = tr.t
	}
	start := time.Now()
	out, err := core.ArbMIS(w.g, w.params, opts)
	end := time.Now()
	w.out = out
	if err != nil {
		return opSample{}, err
	}
	if tr != nil {
		w.record(tr, start, end)
	}
	return opSample{start: start, end: end, rounds: out.TotalRounds()}, nil
}

// record turns the tracer's engine runs into stage spans. Each non-empty
// stage is one Runner, opened by its round-0 start; empty stages run
// nothing and time 0.
func (w *arbMIS) record(tr *opTrace, start, end time.Time) {
	var names, spanNames []string
	var nodes []int
	for _, s := range w.out.Stages {
		if s.Nodes > 0 {
			names = append(names, s.Name)
			spanNames = append(spanNames, "stage."+s.Name)
			nodes = append(nodes, s.Nodes)
		}
		tr.layers.add("core.stage_rounds."+s.Name, float64(s.Result.Rounds))
	}
	bad := 0
	for _, c := range w.out.BadComponentSizes {
		bad += c
	}
	tr.layers.add("core.bad_set_size", float64(bad))
	tr.layers.add("core.deferred_size", float64(w.out.VloSize+w.out.VhiSize))
	tr.layers.markAbsent("congest.newrunner_ms", "core.ArbMIS builds its Runners inside the layer")

	runs := tr.t.runs
	if len(runs) != len(names) {
		reason := fmt.Sprintf("saw %d engine runs for %d non-empty stages", len(runs), len(names))
		for _, n := range stageNames {
			tr.layers.markAbsent("core.stage_ms."+n, reason)
		}
		tr.layers.markAbsent("core.glue_ms", reason)
		return
	}
	stageMS := map[string]float64{}
	total := 0.0
	for k := range runs {
		s, e := runs[k].span()
		stageMS[names[k]] = ms(e.Sub(s))
		total += ms(e.Sub(s))
	}
	for _, n := range stageNames {
		tr.layers.add("core.stage_ms."+n, stageMS[n])
	}
	tr.layers.add("core.glue_ms", ms(end.Sub(start))-total)
	tr.layers.add("congest.run_ms", total)
	tr.engine(runs, nodes, total)
	tr.next = tr.spans.addRuns(tr.op, tr.next, 0, runs, spanNames)
}

func (w *arbMIS) check(i int, tr *opTrace) error {
	if w.out == nil {
		return errors.New("arbmis: no outcome")
	}
	t0 := time.Now()
	err := w.g.VerifyMIS(w.out.MIS)
	if tr != nil {
		tr.layers.add("graph.verify_ms", ms(time.Since(t0)))
		tr.span("verify", -1, t0, time.Now())
	}
	if i < digestOps {
		w.d = w.d.word(uint64(w.out.TotalRounds()))
		for _, in := range w.out.MIS {
			if in {
				w.d = w.d.word(1)
			} else {
				w.d = w.d.word(0)
			}
		}
	}
	w.out = nil
	return err
}

func (w *arbMIS) digest() uint64 { return uint64(w.d) }
func (w *arbMIS) digestLen() int { return digestOps }
func (w *arbMIS) close() error   { return nil }

// ---- metivier-pool ----

// poolRun runs Métivier on a heavy-tailed graph through the pool driver.
type poolRun struct {
	g        *graph.Graph
	seed     uint64
	statuses []base.Status
	d        digest
}

func setupPool(seed uint64, sz sizes, phases *acc) (instance, error) {
	g := timedGraph(phases, func() *graph.Graph { return gen.PreferentialAttachment(sz.poolN, 4, inputRNG(seed)) })
	return &poolRun{g: g, seed: seed, d: newDigest()}, nil
}

func (w *poolRun) inputs() inputRecord {
	return graphRecord(w.g, fmt.Sprintf("preferential attachment m=4, Δ=%d", w.g.MaxDegree()))
}

func (w *poolRun) op(i int, tr *opTrace) (opSample, error) {
	opts := congest.Options{Seed: opSeed(w.seed, i), Driver: congest.DriverPool, Workers: concurrency}
	s, _, err := runEngine(w.g, metivier.New(), opts, tr, &w.statuses)
	return s, err
}

func (w *poolRun) check(i int, tr *opTrace) error {
	t0 := time.Now()
	err := w.g.VerifyMIS(base.MISSet(w.statuses))
	if tr != nil {
		tr.layers.add("graph.verify_ms", ms(time.Since(t0)))
		tr.span("verify", -1, t0, time.Now())
	}
	if i < digestOps {
		w.d = foldStatuses(w.d, w.statuses)
	}
	return err
}

func (w *poolRun) digest() uint64 { return uint64(w.d) }
func (w *poolRun) digestLen() int { return digestOps }
func (w *poolRun) close() error   { return nil }

// runEngine is one op on the engine: NewRunner, Run and the status read,
// each timed as its own span when traced. Statuses land in *out.
func runEngine(g *graph.Graph, factory func(int) congest.Node, opts congest.Options, tr *opTrace, out *[]base.Status) (opSample, congest.Result, error) {
	if tr != nil {
		opts.Events, opts.EventTiming = tr.t, true
	}
	start := time.Now()
	r := congest.NewRunner(g, factory, opts)
	built := time.Now()
	res, err := r.Run()
	ran := time.Now()
	if err != nil {
		return opSample{}, res, err
	}
	*out = base.Statuses(r, g.N())
	end := time.Now()
	if tr != nil {
		tr.layers.add("congest.newrunner_ms", ms(built.Sub(start)))
		tr.layers.add("congest.run_ms", ms(ran.Sub(built)))
		tr.span("newrunner", 0, start, built)
		runID := tr.span("run", 0, built, ran)
		tr.next = tr.spans.addRuns(tr.op, tr.next, runID, tr.t.runs, []string{"engine"})
		tr.span("statuses", 0, ran, end)
		tr.engine(tr.t.runs, []int{g.N()}, ms(ran.Sub(built)))
	}
	return opSample{start: start, end: end, rounds: res.Rounds}, res, nil
}

// ---- dynmis-stream ----

// streamRun applies a seeded update stream to a dynamic-MIS engine, one
// batch per op. When the stream is exhausted the engine is verified and
// rebuilt off the clock (with the next pass's seed) and the stream
// replays; close verifies the pass the run stopped in.
type streamRun struct {
	g      *graph.Graph
	stream []dynmis.Batch
	seed   uint64
	eng    *dynmis.Engine
	pass   int
	sink   *toggle
	rep    dynmis.BatchReport
	d      digest
}

// streamConfig is the update stream's shape: 16 updates per batch spread
// uniformly over the graph, 5% of them node churn.
func streamConfig(batches int) dynmis.StreamConfig {
	return dynmis.StreamConfig{Batches: batches, BatchSize: 16, Locality: 0, Churn: 0.05}
}

func setupStream(seed uint64, sz sizes, phases *acc) (instance, error) {
	g := timedGraph(phases, func() *graph.Graph { return gen.RandomTree(sz.dynN, inputRNG(seed)) })
	t0 := time.Now()
	stream, err := dynmis.UpdateStream(g, streamConfig(sz.streamBatches), rng.New(seed).Split(streamLabel))
	if err != nil {
		return nil, err
	}
	phases.add("dynmis.stream_gen_ms", ms(time.Since(t0)))
	w := &streamRun{g: g, stream: stream, seed: seed, sink: &toggle{}, d: newDigest()}
	t0 = time.Now()
	if err := w.bootstrap(); err != nil {
		return nil, err
	}
	phases.add("dynmis.bootstrap_ms", ms(time.Since(t0)))
	return w, nil
}

// bootstrap builds the engine for the current pass.
func (w *streamRun) bootstrap() error {
	eng, err := dynmis.New(w.g, dynmis.Options{Seed: opSeed(w.seed, w.pass), Events: w.sink})
	if err != nil {
		return fmt.Errorf("dynmis bootstrap: %w", err)
	}
	w.eng = eng
	return nil
}

func (w *streamRun) inputs() inputRecord {
	updates := 0
	for _, b := range w.stream {
		updates += len(b)
	}
	return graphRecord(w.g, fmt.Sprintf("random tree; stream of %d batches, %d updates", len(w.stream), updates))
}

func (w *streamRun) op(i int, tr *opTrace) (opSample, error) {
	if tr != nil {
		w.sink.t, w.sink.on = tr.t, true
		defer func() { w.sink.on = false }()
	}
	b := w.stream[i%len(w.stream)]
	start := time.Now()
	rep, err := w.eng.Apply(b)
	end := time.Now()
	if err != nil {
		return opSample{}, err
	}
	w.rep = rep
	if tr != nil {
		w.record(tr)
	}
	return opSample{start: start, end: end, rounds: rep.Rounds}, nil
}

// record adds the batch report's repair accounting. The repair Runner
// lives inside dynmis with its own trace recorder, so the engine-level
// numbers are absent here.
func (w *streamRun) record(tr *opTrace) {
	rep := w.rep
	if rep.Region > 0 {
		for _, name := range []string{"dynmis.region_p50", "dynmis.region_p90", "dynmis.region_max"} {
			tr.layers.add(name, float64(rep.Region))
		}
		tr.layers.frac("dynmis.free_share", float64(rep.Free), float64(rep.Region))
	}
	repaired := 0.0
	if rep.Seeds > 0 {
		repaired = 1
	}
	tr.layers.frac("dynmis.repair_share", repaired, 1)
	tr.layers.add("congest.messages_per_op", float64(rep.Messages))
	const inside = "the repair Runner is built and traced inside dynmis.Engine.Apply"
	for _, name := range []string{
		"congest.newrunner_ms", "congest.run_ms", "congest.ns_per_message",
		"congest.round_ms_p50", "congest.round_ms_max", "congest.live_share",
		"rng.node_draws_per_op", "rng.fault_draws_per_op",
	} {
		tr.layers.markAbsent(name, inside)
	}
}

func (w *streamRun) check(i int, _ *opTrace) error {
	if (i+1)%len(w.stream) != 0 {
		return nil
	}
	err := w.eng.Verify()
	if w.pass == 0 {
		w.d = w.d.word(w.eng.Fingerprint())
		for _, v := range w.eng.MIS() {
			w.d = w.d.word(uint64(v))
		}
	}
	w.pass++
	if berr := w.bootstrap(); berr != nil {
		return errors.Join(err, berr)
	}
	return err
}

func (w *streamRun) digest() uint64 { return uint64(w.d) }
func (w *streamRun) digestLen() int { return len(w.stream) }

// close verifies the engine after the batches of the last, partial pass.
func (w *streamRun) close() error {
	if err := w.eng.Verify(); err != nil {
		return fmt.Errorf("dynmis pass %d: %w", w.pass, err)
	}
	return nil
}

// ---- dist-faulted ----

// distRun runs Métivier through the distributed driver on a two-shard
// fleet of worker processes with 2% message loss. Each op is checked
// against an in-process sequential run of the same seed.
type distRun struct {
	g         *graph.Graph
	seed      uint64
	fleet     *distrib.ExecFleet
	factory   func(int) congest.Node
	plan      faultsim.Plan
	maxRounds int
	pids      []int
	res       congest.Result
	statuses  []base.Status
	d         digest
}

// distProgram is the registry program the fleet's workers run.
var distProgram = distrib.Program{Algorithm: "metivier"}

func setupDist(seed uint64, sz sizes, phases *acc) (instance, error) {
	g := timedGraph(phases, func() *graph.Graph { return gen.UnionOfTrees(sz.distN, 2, inputRNG(seed)) })
	factory, err := distrib.Factory(distProgram, g.N())
	if err != nil {
		return nil, err
	}
	w := &distRun{
		g: g, seed: seed, factory: factory,
		plan: faultsim.BernoulliDrop{P: 0.02}, maxRounds: 4 * g.N(),
		d: newDigest(),
	}
	// Spawn both workers with a run on a seed no op uses; the time to
	// that run's round-0 start is process spawn plus config handshake.
	t0 := time.Now()
	w.fleet, err = distrib.NewExecFleet(g, distProgram, concurrency)
	if err != nil {
		return nil, err
	}
	spawn := newTracer()
	opts := w.opts(rng.New(seed).Split(streamLabel).Uint64())
	opts.Events = spawn
	if _, err := congest.NewRunner(g, factory, opts).Run(); err != nil {
		return nil, errors.Join(fmt.Errorf("dist spawn run: %w", err), w.close())
	}
	if len(spawn.runs) > 0 {
		s, _ := spawn.runs[0].span()
		phases.add("distrib.spawn_ms", ms(s.Sub(t0)))
	}
	w.pids = w.livePIDs()
	return w, nil
}

// opts are the faulted distributed run options for one seed.
func (w *distRun) opts(seed uint64) congest.Options {
	return congest.Options{
		Seed: seed, Driver: congest.DriverDistributed, Fleet: w.fleet,
		Faults: w.plan, MaxRounds: w.maxRounds,
	}
}

// livePIDs returns the fleet's worker process IDs.
func (w *distRun) livePIDs() []int {
	pids := make([]int, concurrency)
	for s := range pids {
		pids[s] = w.fleet.Pid(s)
	}
	return pids
}

func (w *distRun) inputs() inputRecord {
	return graphRecord(w.g, fmt.Sprintf("union of 2 random trees; %d shard processes; drop p=0.02", concurrency))
}

func (w *distRun) op(i int, tr *opTrace) (opSample, error) {
	s, res, err := runEngine(w.g, w.factory, w.opts(opSeed(w.seed, i)), tr, &w.statuses)
	w.res = res
	if err != nil {
		return s, err
	}
	respawned := 0
	for sh, pid := range w.livePIDs() {
		if pid != w.pids[sh] {
			respawned++
		}
	}
	if tr != nil {
		t := tr.t
		for _, rtt := range t.rtts {
			tr.layers.add("distrib.rtt_us_p50", rtt)
			tr.layers.add("distrib.rtt_us_p90", rtt)
		}
		rounds := 0
		var wait int64
		for _, r := range t.runs {
			rounds += len(r.rounds)
			for _, rd := range r.rounds {
				wait += rd.maxRTT
			}
		}
		tr.layers.frac("distrib.frame_kb_per_round", float64(t.frameBytes)/1024, float64(rounds))
		tr.layers.frac("distrib.wait_share", float64(wait), float64(s.end.Sub(s.start).Nanoseconds()))
		// A respawn shows as an event, a changed PID, or both.
		tr.layers.add("distrib.respawns", float64(max(t.respawns, int64(respawned))))
	}
	if respawned > 0 {
		w.pids = w.livePIDs()
		return s, fmt.Errorf("dist: %d worker(s) respawned during op %d", respawned, i)
	}
	return s, nil
}

// check reruns the op's seed on the in-process sequential driver and
// requires the same result and statuses.
func (w *distRun) check(i int, _ *opTrace) error {
	seq := w.opts(opSeed(w.seed, i))
	seq.Driver, seq.Fleet = congest.DriverSequential, nil
	r := congest.NewRunner(w.g, w.factory, seq)
	res, err := r.Run()
	if err != nil {
		return fmt.Errorf("dist reference: %w", err)
	}
	if res != w.res {
		return fmt.Errorf("dist op %d: result %+v, sequential reference %+v", i, w.res, res)
	}
	ref := base.Statuses(r, w.g.N())
	for v := range ref {
		if ref[v] != w.statuses[v] {
			return fmt.Errorf("dist op %d: vertex %d status %v, sequential reference %v", i, v, w.statuses[v], ref[v])
		}
	}
	if i < digestOps {
		w.d = foldResult(foldStatuses(w.d, w.statuses), w.res)
	}
	return nil
}

func (w *distRun) digest() uint64 { return uint64(w.d) }
func (w *distRun) digestLen() int { return digestOps }

// close shuts the fleet down and fails if any worker process outlived it.
func (w *distRun) close() error {
	if w.fleet == nil {
		return nil
	}
	err := w.fleet.Close()
	w.fleet = nil
	for _, pid := range w.pids {
		if pid > 0 && syscall.Kill(pid, 0) == nil {
			err = errors.Join(err, fmt.Errorf("dist: worker process %d still running after Close", pid))
		}
	}
	return err
}
