package distrib

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

// spawnTimeout bounds how long ExecFleet waits for a just-spawned worker
// to dial back and answer its config, and rehandshakeTimeout how long it
// waits for a kept-alive worker to accept a new run's config before
// falling back to a respawn. A worker that is wedged, or that connects
// and then stalls, must not hang the coordinator.
const (
	spawnTimeout       = 30 * time.Second
	rehandshakeTimeout = 5 * time.Second
)

// handshake runs the coordinator side of connection setup: ship the
// shard's config (program spec, plus the owned range's adjacency rows
// from g — a nil g ships the config without rows, for a reused worker
// that keeps the rows of its spawn) and read the worker's hello. The
// whole exchange runs under a socket deadline of timeout, so a worker
// that never answers fails the handshake instead of hanging the run; the
// deadline is cleared on return, leaving the round exchanges that follow
// unbounded.
//
//lint:advisory the handshake deadline is a liveness timeout on worker setup, never program logic
func handshake(fc *frameConn, timeout time.Duration, g *graph.Graph, prog Program, cfg congest.ShardConfig) (err error) {
	if err := fc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer func() {
		if derr := fc.c.SetDeadline(time.Time{}); err == nil {
			err = derr
		}
	}()
	m := configMsg{cfg: cfg, prog: prog}
	if g != nil {
		m.rows = g.Rows(cfg.Lo, cfg.Hi)
	}
	var enc encoder
	encodeConfig(&enc, m)
	if err := fc.writeFrame(enc.buf); err != nil {
		return err
	}
	payload, err := fc.readFrame()
	if err != nil {
		return err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return err
	}
	switch kind {
	case fkHello:
		return dec.done()
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return derr
		}
		return fmt.Errorf("distrib: worker rejected config: %s", msg)
	default:
		return fmt.Errorf("distrib: expected hello frame, got %s", kind)
	}
}

// shardConn is the coordinator's framed connection to one worker. It
// implements congest.ShardConn and measures the advisory per-round
// transport volume and latency the EvFrame event reports.
type shardConn struct {
	fc      *frameConn
	enc     encoder
	dec     decodeScratch
	sentAt  time.Time
	lastOut int64
}

// Send ships one round input.
//
//lint:advisory the send timestamp feeds the advisory EvFrame latency measurement, never program logic
func (sc *shardConn) Send(in congest.RoundInput) error {
	sc.sentAt = time.Now()
	before := sc.fc.bytesOut
	encodeRound(&sc.enc, in)
	if err := sc.fc.writeFrame(sc.enc.buf); err != nil {
		return err
	}
	sc.lastOut = sc.fc.bytesOut - before
	return nil
}

// Recv collects the worker's round output and annotates it with the
// advisory transport measurements.
//
//lint:advisory round-trip latency is an advisory transport measurement, never program logic
func (sc *shardConn) Recv() (congest.RoundOutput, error) {
	before := sc.fc.bytesIn
	payload, err := sc.fc.readFrame()
	if err != nil {
		return congest.RoundOutput{}, err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return congest.RoundOutput{}, err
	}
	var out congest.RoundOutput
	switch kind {
	case fkSweep:
		if out, err = sc.dec.sweep(dec); err != nil {
			return congest.RoundOutput{}, err
		}
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return congest.RoundOutput{}, derr
		}
		return congest.RoundOutput{}, fmt.Errorf("distrib: worker failed: %s", msg)
	default:
		return congest.RoundOutput{}, fmt.Errorf("distrib: expected sweep frame, got %s", kind)
	}
	out.BytesOut = sc.lastOut
	out.BytesIn = sc.fc.bytesIn - before
	out.LatencyNanos = time.Since(sc.sentAt).Nanoseconds()
	return out, nil
}

// Outputs ends the run and collects the worker's exported states.
func (sc *shardConn) Outputs() ([]uint64, error) {
	encodeFinish(&sc.enc)
	if err := sc.fc.writeFrame(sc.enc.buf); err != nil {
		return nil, err
	}
	payload, err := sc.fc.readFrame()
	if err != nil {
		return nil, err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case fkOutputs:
		return sc.dec.outputs(dec)
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return nil, derr
		}
		return nil, fmt.Errorf("distrib: worker failed: %s", msg)
	default:
		return nil, fmt.Errorf("distrib: expected outputs frame, got %s", kind)
	}
}

// Close tears the connection down.
func (sc *shardConn) Close() error { return sc.fc.close() }

// ExecFleet spawns shard workers by re-executing the current binary with
// the MISNODE_SOCKET environment variable set (see MaybeWorker): each
// worker dials the fleet's unix socket, receives its config, and serves
// runs until the fleet closes the connection. The fleet tracks worker
// processes so tests can SIGKILL one mid-run and crash recovery can
// respawn it.
type ExecFleet struct {
	g      *graph.Graph
	prog   Program
	shards int
	dir    string
	socket string
	ln     *net.UnixListener
	cmds   []*exec.Cmd
	conns  []*shardConn
}

// NewExecFleet prepares a self-exec worker fleet of the given shard
// count over a fresh unix socket. Close releases the socket, the workers
// and the temp directory.
func NewExecFleet(g *graph.Graph, prog Program, shards int) (*ExecFleet, error) {
	if shards < 1 {
		return nil, fmt.Errorf("distrib: fleet needs at least one shard, got %d", shards)
	}
	if _, err := Factory(prog, g.N()); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "misfleet-")
	if err != nil {
		return nil, fmt.Errorf("distrib: fleet temp dir: %w", err)
	}
	socket := filepath.Join(dir, "fleet.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("distrib: fleet listen: %w", err)
	}
	return &ExecFleet{
		g:      g,
		prog:   prog,
		shards: shards,
		dir:    dir,
		socket: socket,
		ln:     ln.(*net.UnixListener),
		cmds:   make([]*exec.Cmd, shards),
		conns:  make([]*shardConn, shards),
	}, nil
}

// NumShards returns the fleet's worker count.
func (f *ExecFleet) NumShards() int { return f.shards }

// Pid returns the worker process ID for a shard (0 before it starts),
// so tests can deliver signals to a live worker.
func (f *ExecFleet) Pid(shard int) int {
	if f.cmds[shard] == nil || f.cmds[shard].Process == nil {
		return 0
	}
	return f.cmds[shard].Process.Pid
}

// Shard provides the worker for cfg.Index. A worker kept alive by a
// previous run on this fleet is reused: the fleet re-runs the config
// handshake on its live connection (workers loop back to config-wait
// after exporting outputs), so consecutive runs skip the process spawn.
// The reuse handshake ships no adjacency rows — the worker kept those of
// its spawn handshake, which always ships them. Any failure of that
// handshake — the worker died, is wedged mid-run, or rejected the config
// — falls back to the spawn path, which is also how crash recovery
// respawns a shard mid-run.
//
//lint:advisory the accept deadline is a liveness timeout on worker startup, never program logic
func (f *ExecFleet) Shard(cfg congest.ShardConfig) (congest.ShardConn, error) {
	s := cfg.Index
	if s < 0 || s >= f.shards {
		return nil, fmt.Errorf("distrib: shard index %d outside fleet of %d", s, f.shards)
	}
	if f.cmds[s] != nil && f.conns[s] != nil {
		if err := handshake(f.conns[s].fc, rehandshakeTimeout, nil, f.prog, cfg); err == nil {
			return f.conns[s], nil
		}
		_ = f.conns[s].Close()
		f.conns[s] = nil
	}
	f.reap(s)
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrib: resolve executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerSocketEnv+"="+f.socket)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: spawn worker: %w", err)
	}
	if err := f.ln.SetDeadline(time.Now().Add(spawnTimeout)); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	conn, err := f.ln.Accept()
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("distrib: worker for shard %d never dialed back: %w", s, err)
	}
	fc := newFrameConn(conn)
	if err := handshake(fc, spawnTimeout, f.g, f.prog, cfg); err != nil {
		_ = fc.close()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("distrib: handshake with shard %d worker: %w", s, err)
	}
	f.cmds[s] = cmd
	f.conns[s] = &shardConn{fc: fc}
	return f.conns[s], nil
}

// reap kills and waits any previous worker for the shard (a respawn may
// replace a process that is wedged rather than dead).
func (f *ExecFleet) reap(s int) {
	if f.cmds[s] == nil {
		return
	}
	_ = f.cmds[s].Process.Kill()
	_ = f.cmds[s].Wait()
	f.cmds[s] = nil
}

// Close shuts the fleet down: connections, worker processes, socket and
// temp directory.
func (f *ExecFleet) Close() error {
	for _, c := range f.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	for s := range f.cmds {
		f.reap(s)
	}
	err := f.ln.Close()
	os.RemoveAll(f.dir)
	return err
}
