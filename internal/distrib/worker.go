package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/congest"
	"repro/internal/graph"
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
		fmt.Fprintf(os.Stderr, "distrib worker: dial %s: %v\n", path, err)
		os.Exit(3)
	}
	if err := serveConn(c); err != nil {
		fmt.Fprintf(os.Stderr, "distrib worker: %v\n", err)
		c.Close()
		os.Exit(1)
	}
	c.Close()
	os.Exit(0)
}

// serveConn runs the worker side of the shard protocol over an
// established coordinator connection: config, hello, then round sweeps
// until the finish/outputs exchange ends the run — and then back to
// waiting for the next run's config, so one worker process serves a
// reused fleet back-to-back. The worker keeps the adjacency rows of the
// first config that ships them: a reused fleet's later configs come
// without rows, and one the kept rows cannot serve — none kept yet, or a
// different N, Lo or Hi — is refused with an error frame, on which the
// fleet spawns a fresh worker. It returns nil when the coordinator closes
// the connection cleanly between runs; any protocol failure is sent to
// the coordinator as an error frame (best effort) and returned. The frame
// codec's decode buffers are per-connection and reused across frames.
//
// serveConn is a worker-process entry point: the coordinator owns every
// engine-side RNG stream, so nothing reachable from here may draw —
// misvet's draworder analyzer enforces that.
//
//draworder:worker
func serveConn(c net.Conn) error {
	fc := newFrameConn(c)
	var enc encoder
	var sc decodeScratch
	var rows graph.Rows             // the kept rows
	var rowsCfg congest.ShardConfig // the config the kept rows came with

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
		switch {
		case cm.rows.Off != nil:
			rows, rowsCfg = cm.rows, cm.cfg
		case rows.Off == nil:
			return fail(errors.New("distrib: worker got a config without rows and holds none"))
		case cm.cfg.N != rowsCfg.N || cm.cfg.Lo != rowsCfg.Lo || cm.cfg.Hi != rowsCfg.Hi:
			return fail(fmt.Errorf("distrib: worker got a config without rows for n=%d [%d, %d); its rows are for n=%d [%d, %d)",
				cm.cfg.N, cm.cfg.Lo, cm.cfg.Hi, rowsCfg.N, rowsCfg.Lo, rowsCfg.Hi))
		}
		factory, err := Factory(cm.prog, cm.cfg.N)
		if err != nil {
			return fail(err)
		}
		worker, err := congest.NewShardWorker(cm.cfg, rows, factory)
		if err != nil {
			return fail(err)
		}
		encodeHello(&enc)
		if err := fc.writeFrame(enc.buf); err != nil {
			return err
		}

		if err := serveRun(fc, &enc, &sc, cm.cfg, worker, fail); err != nil {
			return err
		}
	}
}

// serveRun drives one run's round loop: sweep every fkRound, decoded for
// the run's shard config, until the fkFinish/outputs exchange ends it.
//
//draworder:worker
func serveRun(fc *frameConn, enc *encoder, sc *decodeScratch, cfg congest.ShardConfig, worker *congest.ShardWorker, fail func(error) error) error {
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
			in, err := sc.round(dec, cfg)
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
