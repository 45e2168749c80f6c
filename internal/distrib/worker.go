package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/congest"
	"repro/internal/trace"
)

// workerSocketEnv is the self-exec hook: when set, the process is a
// shard worker spawned by an ExecFleet and must dial the fleet's unix
// socket instead of running its normal main (or test) body.
const workerSocketEnv = "MISNODE_SOCKET"

// MaybeWorker turns the current process into a shard worker when the
// MISNODE_SOCKET environment variable is set, and returns immediately
// otherwise. ExecFleet spawns workers by re-executing the current binary
// with that variable set, so every binary (and every test binary, via
// TestMain) that drives an ExecFleet must call MaybeWorker first — the
// worker serves runs over the socket until the fleet closes it, then
// exits without ever reaching the caller's own main body.
func MaybeWorker() {
	path := os.Getenv(workerSocketEnv)
	if path == "" {
		return
	}
	c, err := net.Dial("unix", path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "misnode worker: dial %s: %v\n", path, err)
		os.Exit(3)
	}
	if err := ServeConn(c); err != nil {
		fmt.Fprintf(os.Stderr, "misnode worker: %v\n", err)
		c.Close()
		os.Exit(1)
	}
	c.Close()
	os.Exit(0)
}

// workerMetrics is the per-shard Prometheus surface a worker exposes on
// its /metrics endpoint: the trace registry plus the worker's own frame
// and sweep counters.
type workerMetrics struct {
	reg      *trace.Registry
	rounds   *trace.Counter
	msgsIn   *trace.Counter
	pktsOut  *trace.Counter
	bytesIn  *trace.Counter
	bytesOut *trace.Counter
	live     *trace.Gauge
	shard    *trace.Gauge
}

// newWorkerMetrics builds the registry and registers the misnode metric
// family.
func newWorkerMetrics() *workerMetrics {
	reg := trace.NewRegistry()
	return &workerMetrics{
		reg:      reg,
		rounds:   reg.Counter("misnode_rounds_total", "rounds swept by this shard worker"),
		msgsIn:   reg.Counter("misnode_messages_in_total", "messages delivered to this shard's inboxes"),
		pktsOut:  reg.Counter("misnode_packets_out_total", "messages sent by this shard's nodes"),
		bytesIn:  reg.Counter("misnode_frame_bytes_in_total", "frame bytes received from the coordinator"),
		bytesOut: reg.Counter("misnode_frame_bytes_out_total", "frame bytes sent to the coordinator"),
		live:     reg.Gauge("misnode_live_vertices", "not-yet-halted vertices in the shard"),
		shard:    reg.Gauge("misnode_shard_index", "this worker's shard index"),
	}
}

// serveMetrics binds the requested listen address and serves /metrics
// from the registry for the life of the process. It returns the bound
// address (the request may use port 0).
func serveMetrics(addr string, reg *trace.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("distrib: metrics listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	//lint:advisory the metrics HTTP server is advisory observability on its own socket; it never touches run state
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// ServeConn runs the worker side of the shard protocol over an
// established coordinator connection: config, hello, then round sweeps
// until the finish/outputs exchange ends the run — and then back to
// waiting for the next run's config, so one worker process serves a
// reused fleet back-to-back. It returns nil when the coordinator closes
// the connection cleanly between runs; any protocol failure is sent to
// the coordinator as an error frame (best effort) and returned. The
// metrics endpoint, when requested, is bound once per connection and its
// address re-announced in each run's hello. The frame codec's decode
// buffers are likewise per-connection and reused across frames.
//
// ServeConn is a worker-process entry point: the coordinator owns every
// engine-side RNG stream, so nothing reachable from here may draw —
// misvet's draworder analyzer enforces that.
//
//draworder:worker
func ServeConn(c net.Conn) error {
	fc := newFrameConn(c)
	var enc encoder
	var sc decodeScratch
	var m *workerMetrics
	metricsAddr := ""

	fail := func(err error) error {
		encodeError(&enc, err.Error())
		_ = fc.writeFrame(enc.buf) // best effort: the peer may already be gone
		return err
	}

	for {
		payload, err := fc.readFrame()
		if err != nil {
			// EOF at config-wait is the clean between-runs shutdown: the
			// fleet closed the connection instead of starting another run.
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		kind, dec, err := payloadKind(payload)
		if err != nil {
			return err
		}
		if kind != fkConfig {
			return fail(fmt.Errorf("distrib: worker expected config frame, got %s", kind))
		}
		cm, err := decodeConfig(dec)
		if err != nil {
			return fail(err)
		}
		factory, err := Factory(cm.prog, cm.cfg.N)
		if err != nil {
			return fail(err)
		}
		adj := cm.adj
		lo := cm.cfg.Lo
		neighbors := func(v int) []int { return adj[v-lo] }
		worker, err := congest.NewShardWorker(cm.cfg, neighbors, factory)
		if err != nil {
			return fail(err)
		}

		if cm.metricsAddr != "" && m == nil {
			m = newWorkerMetrics()
			if metricsAddr, err = serveMetrics(cm.metricsAddr, m.reg); err != nil {
				return fail(err)
			}
		}
		if m != nil {
			m.shard.Set(int64(cm.cfg.Index))
			m.live.Set(int64(worker.Live()))
		}
		encodeHello(&enc, metricsAddr)
		if err := fc.writeFrame(enc.buf); err != nil {
			return err
		}

		if err := serveRun(fc, &enc, &sc, worker, neighbors, m, fail); err != nil {
			return err
		}
	}
}

// serveRun drives one run's round loop: sweep every fkRound until the
// fkFinish/outputs exchange ends it. neighbors is the owned vertices'
// adjacency, which the sent-message counter expands Broadcast records by.
//
//draworder:worker
func serveRun(fc *frameConn, enc *encoder, sc *decodeScratch, worker *congest.ShardWorker, neighbors func(v int) []int, m *workerMetrics, fail func(error) error) error {
	for {
		payload, err := fc.readFrame()
		if err != nil {
			return err
		}
		kind, dec, err := payloadKind(payload)
		if err != nil {
			return fail(err)
		}
		switch kind {
		case fkRound:
			in, err := sc.round(dec)
			if err != nil {
				return fail(err)
			}
			out, err := worker.Sweep(in)
			if err != nil {
				return fail(err)
			}
			encodeSweep(enc, out)
			if err := fc.writeFrame(enc.buf); err != nil {
				return err
			}
			if m != nil {
				m.rounds.Inc()
				m.msgsIn.Add(int64(len(in.Inbox)))
				m.pktsOut.Add(sentMessages(out.Packets, neighbors))
				m.live.Set(int64(worker.Live()))
				m.bytesIn.Add(fc.bytesIn - m.bytesIn.Value())
				m.bytesOut.Add(fc.bytesOut - m.bytesOut.Value())
			}
		case fkFinish:
			if err := dec.done(); err != nil {
				return fail(err)
			}
			encodeOutputs(enc, worker.Outputs())
			return fc.writeFrame(enc.buf)
		default:
			return fail(fmt.Errorf("distrib: worker expected round or finish frame, got %s", kind))
		}
	}
}

// sentMessages counts the messages a sweep's packets carry: a Broadcast
// record is one message per neighbor of its sender.
func sentMessages(pkts []congest.Packet, neighbors func(v int) []int) int64 {
	var n int64
	for _, p := range pkts {
		if p.To == congest.BroadcastTo {
			n += int64(len(neighbors(int(p.From))))
		} else {
			n++
		}
	}
	return n
}
