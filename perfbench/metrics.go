package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	agg                aggKind
}

// aggKind is how a per-layer metric reduces its samples.
type aggKind int

const (
	aggMedian     aggKind = iota // median of per-op (or per-setup) samples
	aggMean                      // mean of per-op samples
	aggP90                       // 90th percentile of pooled samples
	aggTopQuarter                // mean of the largest quarter of pooled samples
	aggMax                       // largest pooled sample
	aggSum                       // sum of samples
	aggRatio                     // summed numerator over summed denominator
)

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", aggMedian},
	{"ops_per_s", "1/s", "higher", aggRatio},
	{"op_ms_p50", "ms", "lower", aggMedian},
	{"op_ms_p90", "ms", "lower", aggP90},
	{"rounds_per_op", "count", "lower", aggMean},
	{"alloc_mb_per_op", "MB", "lower", aggRatio},
	{"heap_peak_mb", "MB", "lower", aggTopQuarter},
}

// perLayer are the traced run's metrics, grouped by the layer they time
// or count. README.md maps each to the end-to-end metric it moves.
var perLayer = []metricDef{
	{"gen.graph_ms", "ms", "lower", aggMedian},
	{"graph.verify_ms", "ms", "lower", aggMedian},
	{"congest.newrunner_ms", "ms", "lower", aggMedian},
	{"congest.run_ms", "ms", "lower", aggMedian},
	{"congest.ns_per_message", "ns", "lower", aggMedian},
	{"congest.messages_per_op", "count", "lower", aggMean},
	{"congest.round_ms_p50", "ms", "lower", aggMedian},
	{"congest.round_ms_max", "ms", "lower", aggMax},
	{"congest.live_share", "ratio", "lower", aggRatio},
	{"congest.shard_busy_ms", "ms", "lower", aggMedian},
	{"congest.shard_imbalance", "ratio", "lower", aggMedian},
	{"congest.merge_ms", "ms", "lower", aggMedian},
	{"congest.merge_share", "ratio", "lower", aggRatio},
	{"congest.rebalances", "count", "lower", aggMean},
	{"core.stage_ms.alg1", "ms", "lower", aggMedian},
	{"core.stage_ms.vlo", "ms", "lower", aggMedian},
	{"core.stage_ms.vhi", "ms", "lower", aggMedian},
	{"core.stage_ms.bad", "ms", "lower", aggMedian},
	{"core.glue_ms", "ms", "lower", aggMedian},
	{"core.stage_rounds.alg1", "count", "lower", aggMean},
	{"core.stage_rounds.vlo", "count", "lower", aggMean},
	{"core.stage_rounds.vhi", "count", "lower", aggMean},
	{"core.stage_rounds.bad", "count", "lower", aggMean},
	{"core.bad_set_size", "count", "lower", aggMean},
	{"core.deferred_size", "count", "lower", aggMean},
	{"rng.node_draws_per_op", "count", "lower", aggMean},
	{"rng.fault_draws_per_op", "count", "lower", aggMean},
	{"faultsim.drop_ratio", "ratio", "lower", aggRatio},
	{"distrib.spawn_ms", "ms", "lower", aggMedian},
	{"distrib.rtt_us_p50", "us", "lower", aggMedian},
	{"distrib.rtt_us_p90", "us", "lower", aggP90},
	{"distrib.frame_kb_per_round", "KB", "lower", aggRatio},
	{"distrib.wait_share", "ratio", "lower", aggRatio},
	{"distrib.respawns", "count", "lower", aggSum},
	{"dynmis.stream_gen_ms", "ms", "lower", aggMedian},
	{"dynmis.bootstrap_ms", "ms", "lower", aggMedian},
	{"dynmis.region_p50", "count", "lower", aggMedian},
	{"dynmis.region_p90", "count", "lower", aggP90},
	{"dynmis.region_max", "count", "lower", aggMax},
	{"dynmis.free_share", "ratio", "higher", aggRatio},
	{"dynmis.repair_share", "ratio", "lower", aggRatio},
	{"trace.overhead_pct", "%", "lower", aggMedian},
	{"trace.events_per_op", "count", "lower", aggMedian},
	{"runtime.gc_per_op", "count", "lower", aggMedian},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", aggMedian},
}

// acc collects metric samples by name. Sample-based metrics use add;
// ratio metrics use frac, whose numerators and denominators are summed
// separately. A metric the workload cannot observe is marked absent with
// the reason.
type acc struct {
	samples map[string][]float64
	num     map[string]float64
	den     map[string]float64
	absent  map[string]string
}

func newAcc() *acc {
	return &acc{
		samples: map[string][]float64{},
		num:     map[string]float64{},
		den:     map[string]float64{},
		absent:  map[string]string{},
	}
}

// add appends one sample.
func (a *acc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

// frac adds num and den to a ratio metric.
func (a *acc) frac(name string, num, den float64) {
	a.num[name] += num
	a.den[name] += den
}

// markAbsent records why the workload cannot report a metric.
func (a *acc) markAbsent(name, reason string) { a.absent[name] = reason }

// value reduces one metric, reporting whether it was observed at all.
func (a *acc) value(d metricDef) (float64, bool) {
	if d.agg == aggRatio {
		den, ok := a.den[d.name]
		if !ok {
			return 0, false
		}
		if den == 0 {
			return 0, true
		}
		return a.num[d.name] / den, true
	}
	xs, ok := a.samples[d.name]
	if !ok {
		return 0, false
	}
	switch d.agg {
	case aggMean:
		return mean(xs), true
	case aggP90:
		return quantile(xs, 0.9), true
	case aggTopQuarter:
		return topMean(xs, 0.25), true
	case aggMax:
		return maxOf(xs), true
	case aggSum:
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum, true
	default:
		return median(xs), true
	}
}

// report reduces every metric in defs. A metric marked absent, or with
// no samples, reports 0 and is listed in absent with the recorded reason
// or, failing that, as not exercised by the workload.
func (a *acc) report(defs []metricDef) (map[string]resultMetric, map[string]string) {
	out := make(map[string]resultMetric, len(defs))
	absent := map[string]string{}
	for _, d := range defs {
		v, ok := a.value(d)
		if reason, marked := a.absent[d.name]; marked {
			v, absent[d.name] = 0, reason
		} else if !ok {
			absent[d.name] = "not exercised by this workload"
		}
		out[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	return out, absent
}

// resultMetric is one entry of the result line's metrics object.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// allocProbe reads the runtime's cumulative heap allocation counter
// without stopping the world.
type allocProbe struct {
	s []metrics.Sample
}

func newAllocProbe() *allocProbe {
	return &allocProbe{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// read returns the bytes allocated on the heap so far.
func (p *allocProbe) read() uint64 {
	metrics.Read(p.s)
	return p.s[0].Value.Uint64()
}

// heapWatch records the live heap each GC cycle marks while it is armed.
// A sentinel's finalizer runs once per cycle, reads the live heap that
// cycle marked, and re-arms itself until stop.
type heapWatch struct {
	mu      sync.Mutex
	live    []float64 // MB, one per cycle
	stopped bool
}

// gcSentinel holds a pointer so that it is never tiny-allocated, whose
// finalizers may not run.
type gcSentinel struct{ _ *int }

func startHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		v := float64(liveHeap()) / 1e6
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.stopped {
			h.live = append(h.live, v)
			h.arm()
		}
	})
}

// stop disarms the watch and returns the per-cycle live heap in MB; with
// no cycle seen it is the live heap the last cycle marked.
func (h *heapWatch) stop() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	if len(h.live) == 0 {
		return []float64{float64(liveHeap()) / 1e6}
	}
	return h.live
}

// liveHeap returns the heap bytes the last GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCounts returns the completed GC cycles and their summed
// stop-the-world pause.
func gcCounts() (cycles uint32, pauseNS uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}
