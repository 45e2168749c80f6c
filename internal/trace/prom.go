package trace

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the Prometheus text-exposition side of the subsystem: a
// tiny dependency-free metric registry (counters, gauges, histograms) and
// a Metrics sink that folds the engine's event stream into it. cmd/traceview
// serves the registry at /metrics so a traced workload is scrapeable by a
// stock Prometheus server.

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by d (negative deltas are a programming
// error Prometheus semantics forbid; they are ignored).
//
//lint:advisory Prometheus metrics are advisory observability, never program logic
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
//
//lint:advisory Prometheus metrics are advisory observability, never program logic
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
//
//lint:advisory Prometheus metrics are advisory observability, never program logic
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge value.
//
//lint:advisory Prometheus metrics are advisory observability, never program logic
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Value returns the current value.
//
//lint:advisory Prometheus metrics are advisory observability, never program logic
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a cumulative-bucket histogram with fixed upper bounds.
// Safe for concurrent use.
type Histogram struct {
	name, help string
	bounds     []float64
	mu         sync.Mutex
	counts     []int64
	sum        float64
	count      int64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += x
	h.count++
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i]++
		}
	}
}

// Registry holds metrics and renders them in the Prometheus text
// exposition format. Metric names must be unique; registering a duplicate
// panics (a wiring bug, not a runtime condition).
type Registry struct {
	mu    sync.Mutex
	names map[string]bool
	order []func(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register claims a name and appends a renderer.
func (r *Registry) register(name string, render func(w io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("trace: duplicate metric " + name)
	}
	r.names[name] = true
	r.order = append(r.order, render)
}

// Counter creates and registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, func(w io.Writer) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, c.Value())
	})
	return c
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, func(w io.Writer) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, g.Value())
	})
	return g
}

// Histogram creates and registers a histogram with the given upper
// bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	h := &Histogram{name: name, help: help, bounds: sorted, counts: make([]int64, len(sorted))}
	r.register(name, func(w io.Writer) {
		h.mu.Lock()
		defer h.mu.Unlock()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i, b := range h.bounds {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), h.counts[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
	})
	return h
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// WriteTo renders every registered metric in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	renders := append([]func(w io.Writer){}, r.order...)
	r.mu.Unlock()
	for _, render := range renders {
		render(w)
	}
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Metrics folds the engine's event stream into a Prometheus registry: a
// Sink that turns a traced run (or a stream of runs) into scrapeable
// counters, gauges, and histograms. The distributed driver's advisory
// transport events feed it too: EvFrame's frame bytes each way and round
// trip, and EvRespawn's crash-recovery respawns.
type Metrics struct {
	reg *Registry

	Rounds        *Counter
	Sent          *Counter
	Delivered     *Counter
	Dropped       *Counter
	Delayed       *Counter
	Halts         *Counter
	NodeDraws     *Counter
	FrameBytesOut *Counter
	FrameBytesIn  *Counter
	Respawns      *Counter
	Live          *Gauge

	RoundMessages *Histogram
	MergeSeconds  *Histogram
	FrameRTT      *Histogram
}

// NewMetrics builds a Metrics sink over a fresh registry.
func NewMetrics() *Metrics {
	reg := NewRegistry()
	return &Metrics{
		reg:       reg,
		Rounds:    reg.Counter("congest_rounds_total", "Completed engine rounds (Init included)."),
		Sent:      reg.Counter("congest_messages_sent_total", "Messages handed to delivery, any fate."),
		Delivered: reg.Counter("congest_messages_delivered_total", "Messages delivered to inboxes."),
		Dropped:   reg.Counter("congest_messages_dropped_total", "Messages lost to fault injection."),
		Delayed:   reg.Counter("congest_messages_delayed_total", "Messages deferred by the fault plan."),
		Halts:     reg.Counter("congest_node_halts_total", "Nodes that halted."),
		NodeDraws: reg.Counter("congest_rng_draws_total", "Node-stream RNG draws."),
		FrameBytesOut: reg.Counter("congest_frame_bytes_out_total",
			"Round-frame bytes the distributed coordinator wrote to its shard workers."),
		FrameBytesIn: reg.Counter("congest_frame_bytes_in_total",
			"Sweep-frame bytes the distributed coordinator read back from its shard workers."),
		Respawns: reg.Counter("congest_respawns_total", "Shard workers crash recovery respawned."),
		Live:     reg.Gauge("congest_live_nodes", "Nodes still live after the latest round."),
		RoundMessages: reg.Histogram("congest_round_messages",
			"Messages delivered per round.",
			[]float64{0, 10, 100, 1000, 10000, 100000, 1e6}),
		MergeSeconds: reg.Histogram("congest_merge_seconds",
			"Coordinator delivery (merge) time per round.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}),
		FrameRTT: reg.Histogram("congest_frame_rtt_seconds",
			"Round trip of one shard's round frame and sweep frame.",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}),
	}
}

// Registry exposes the underlying registry (for serving or rendering).
func (m *Metrics) Registry() *Registry { return m.reg }

// Emit implements Sink.
func (m *Metrics) Emit(e Event) {
	switch e.Type {
	case EvRoundEnd:
		m.Rounds.Inc()
		m.Sent.Add(e.X)
		m.Delivered.Add(e.Y)
		m.Dropped.Add(e.Z)
		m.Live.Set(int64(e.V))
		m.RoundMessages.Observe(float64(e.Y))
	case EvDelay:
		m.Delayed.Inc()
	case EvHalt:
		m.Halts.Inc()
	case EvRNG:
		m.NodeDraws.Add(e.X)
	case EvMerge:
		m.MergeSeconds.Observe(float64(e.X) / 1e9)
	case EvFrame:
		m.FrameBytesOut.Add(e.X)
		m.FrameBytesIn.Add(e.Y)
		m.FrameRTT.Observe(float64(e.Z) / 1e9)
	case EvRespawn:
		m.Respawns.Inc()
	}
}
