// Command perfbench is the repository's benchmark. It runs one workload
// in a closed loop with one client for a fixed time, checks every op's
// output, and prints the metrics as the last line of standard output:
//
//	perfbench --workload arbmis --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it traces every other op and reports per-layer metrics,
// writing the traced ops' spans under --spans. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
	"unsafe"

	"repro/internal/congest"
	"repro/internal/distrib"
)

// defaultSeed is the seed whose digests are pinned in pinnedDigests.
const defaultSeed = 1

// heldOutSeed is never used while the benchmark or a change is tuned, so
// that a claimed gain can be checked on inputs nobody looked at.
const heldOutSeed = 20161

// minOps is an untraced run's least op count, warm-up op 0 included:
// its 100 timed ops leave minBeyond samples beyond op_ms_p90.
const minOps = 101

// tracedMinOps is a traced run's least op count, so that the traced and
// the untraced half each have about 20 ops for trace.overhead_pct.
const tracedMinOps = 40

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// maxRunTime stops a run that cannot finish its minimum op count.
const maxRunTime = 150 * time.Second

// messageBytes is the engine's in-memory message size.
const messageBytes = int(unsafe.Sizeof(congest.Message{}))

// pinnedDigests are the output digests on defaultSeed at fullSizes. A
// change that alters any op's output on that seed changes its digest.
var pinnedDigests = map[string]uint64{
	"arbmis":        0x865f4453b83391ca,
	"metivier-pool": 0x372a02ff4db22365,
	"dynmis-stream": 0x5ed22a9045f0330f,
	"dist-faulted":  0x1a421786a369ccd6,
}

func main() {
	distrib.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload workload
	seed     uint64
	seconds  time.Duration
	traced   bool
	spansDir string
	sz       sizes
}

// run parses args, runs the benchmark and prints its lines; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: arbmis, metivier-pool, dynmis-stream or dist-faulted")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceMode)
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1, spansDir: *spansDir, sz: fullSizes,
	}
	res, info, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// info is the line before the result: environment, input and checks.
type info struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	HeldOut   uint64            `json:"held_out_seed"`
	Env       envRecord         `json:"env"`
	Input     inputRecord       `json:"input"`
	Ops       int               `json:"ops_timed"`
	Tail      string            `json:"tail_rule"`
	Digest    string            `json:"digest"`
	Pinned    string            `json:"pinned_digest,omitempty"`
	Failed    float64           `json:"failed_ratio"`
	Errors    []string          `json:"errors,omitempty"`
	Absent    map[string]string `json:"absent,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
}

// bench sets the workload up, warms it, runs the closed loop and reduces
// the metrics.
func bench(cfg config) (result, info, error) {
	w := cfg.workload
	phases := newAcc()
	var setupS []float64
	var inst instance
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, info{}, err
			}
			inst = nil // let the collector take it before the next set-up
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, cfg.sz, phases)
		if err != nil {
			return result{}, info{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	l := newLoop(inst)
	l.one(0, nil) // warm-up: checked and digested, not timed
	runtime.GC()
	var metrics map[string]resultMetric
	var absent map[string]string
	var spansFile string
	if cfg.traced {
		metrics, absent, spansFile = l.traced(cfg, phases)
	} else {
		metrics = l.untraced(cfg, setupS)
	}
	if err := inst.close(); err != nil {
		l.fail(err)
	}

	in := info{
		Workload: w.name, Seed: cfg.seed, HeldOut: heldOutSeed, Env: environment(),
		Input: inst.inputs(), Ops: l.timed, Digest: fmt.Sprintf("%#016x", inst.digest()),
		Absent: absent, SpansFile: spansFile,
	}
	if !cfg.traced {
		in.Tail = fmt.Sprintf("p90 has %d samples beyond it", samplesBeyond(l.timed, 90))
	}
	if pin, ok := pinnedDigests[w.name]; ok && cfg.seed == defaultSeed && cfg.sz == fullSizes {
		in.Pinned = fmt.Sprintf("%#016x", pin)
		if pin != inst.digest() {
			l.fail(fmt.Errorf("digest %s does not match pinned %s", in.Digest, in.Pinned))
		}
	}
	in.Failed = float64(l.failed) / float64(l.attempted)
	in.Errors = l.errs
	res := result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: metrics}
	return res, in, nil
}

// loop drives the ops of one run and counts failures.
type loop struct {
	inst      instance
	attempted int
	failed    int
	timed     int
	errs      []string
	probe     *allocProbe
	// opAlloc is the heap bytes the last op allocated, its check
	// excluded.
	opAlloc uint64
}

func newLoop(inst instance) *loop { return &loop{inst: inst, probe: newAllocProbe()} }

// maxErrs bounds the error messages kept for the info line.
const maxErrs = 8

// fail counts one failure.
func (l *loop) fail(err error) {
	l.failed++
	if len(l.errs) < maxErrs {
		l.errs = append(l.errs, err.Error())
	}
}

// one runs and checks op i, reporting whether it succeeded. The check
// runs with the collector off: a GC cycle in progress finishes first and
// none starts until the check returns, so no cycle marks the check's
// working set into heap_peak_mb. Garbage the check leaves is collected
// during a later op.
func (l *loop) one(i int, tr *opTrace) (opSample, bool) {
	l.attempted++
	a0 := l.probe.read()
	s, err := l.inst.op(i, tr)
	l.opAlloc = l.probe.read() - a0
	if err == nil {
		gc := debug.SetGCPercent(-1)
		err = l.inst.check(i, tr)
		debug.SetGCPercent(gc)
	}
	if err != nil {
		l.fail(fmt.Errorf("op %d: %w", i, err))
		return s, false
	}
	return s, true
}

// more reports whether the loop should run another op: until the
// deadline, and past it until minOps ops and the digest are done.
func (l *loop) more(start time.Time, cfg config, minOps int) bool {
	elapsed := time.Since(start)
	if elapsed > maxRunTime {
		return false
	}
	return elapsed < cfg.seconds || l.attempted < minOps || l.attempted < l.inst.digestLen()
}

// untraced runs the end-to-end measurement: op time, rounds, allocation
// and live heap, with no sink attached.
func (l *loop) untraced(cfg config, setupS []float64) map[string]resultMetric {
	e2e := newAcc()
	for _, s := range setupS {
		e2e.add("setup_s", s)
	}
	watch := startHeapWatch()
	var wallSum time.Duration
	var allocSum uint64
	start := time.Now()
	for i := 1; l.more(start, cfg, minOps); i++ {
		s, ok := l.one(i, nil)
		if !ok {
			continue
		}
		wall := s.end.Sub(s.start)
		wallSum += wall
		allocSum += l.opAlloc
		l.timed++
		e2e.add("op_ms_p50", ms(wall))
		e2e.add("op_ms_p90", ms(wall))
		e2e.add("rounds_per_op", float64(s.rounds))
	}
	e2e.frac("ops_per_s", float64(l.timed), wallSum.Seconds())
	e2e.frac("alloc_mb_per_op", float64(allocSum)/1e6, float64(l.timed))
	// The heap peak is the mean live heap over the top quarter of the
	// loop's GC cycles. The largest cycle, and a single percentile of the
	// cycles, jump between the plateaus of an op's phases depending on
	// where the cycles happened to mark.
	for _, v := range watch.stop() {
		e2e.add("heap_peak_mb", v)
	}
	m, _ := e2e.report(endToEnd)
	return m
}

// traced alternates untraced and traced ops, so tracing overhead is the
// ratio of their medians, and reduces the per-layer metrics. Set-up
// phase times arrive in layers.
func (l *loop) traced(cfg config, layers *acc) (map[string]resultMetric, map[string]string, string) {
	t := newTracer()
	spans := &spanLog{epoch: time.Now()}
	var plain, traced []float64
	gc0, pause0 := gcCounts()
	start := time.Now()
	for i := 1; l.more(start, cfg, tracedMinOps); i++ {
		var tr *opTrace
		if i%2 == 1 {
			t.reset()
			tr = &opTrace{op: i, next: 1, t: t, spans: spans, layers: layers}
		}
		s, ok := l.one(i, tr)
		if !ok {
			continue
		}
		l.timed++
		if tr == nil {
			plain = append(plain, ms(s.end.Sub(s.start)))
			continue
		}
		traced = append(traced, ms(s.end.Sub(s.start)))
		spans.add(i, 0, -1, "op", s.start, s.end)
	}
	gc1, pause1 := gcCounts()
	ops := float64(l.attempted - 1) // op 0 ran before the loop
	layers.add("runtime.gc_per_op", float64(gc1-gc0)/ops)
	layers.add("runtime.gc_pause_ms_per_op", float64(pause1-pause0)/1e6/ops)
	if len(traced) > 0 {
		layers.add("trace.events_per_op", float64(t.events)/float64(len(traced)))
	}
	if p := median(plain); p > 0 {
		layers.add("trace.overhead_pct", (median(traced)/p-1)*100)
	}
	for _, name := range t.adv.missing() {
		for _, m := range advisoryMetrics[name] {
			layers.markAbsent(m, fmt.Sprintf("this build emits no %q event", name))
		}
	}
	m, absent := layers.report(perLayer)
	path := filepath.Join(cfg.spansDir, cfg.workload.name+".jsonl")
	if err := spans.write(path); err != nil {
		l.fail(err)
		path = ""
	}
	return m, absent, path
}
