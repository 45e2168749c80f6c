package distrib

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestHandshakeStalledWorker is the handshake's liveness bound: a worker
// that reads its config and never answers must fail the handshake with
// a deadline error once the timeout passes, not hang the coordinator.
func TestHandshakeStalledWorker(t *testing.T) {
	coord, worker := net.Pipe()
	defer coord.Close()
	defer worker.Close()
	read := make(chan error, 1)
	go func() {
		_, err := newFrameConn(worker).readFrame()
		read <- err
	}()

	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	cfg := congest.ShardConfig{Hi: 2, N: 2, Seed: 1}
	done := make(chan error, 1)
	go func() {
		done <- handshake(newFrameConn(coord), 50*time.Millisecond, g, Program{Algorithm: "metivier"}, cfg)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled handshake returned %v, want a deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handshake with a stalled worker did not return within 10s")
	}
	if err := <-read; err != nil {
		t.Fatalf("worker never received the config: %v", err)
	}
}

// TestWorkerKeepsRowsAcrossRuns drives serveConn over net.Pipe with the
// configs a fleet sends. A freshly connected worker refuses a config
// without rows with an error frame, since it holds none. A worker that got
// its rows in a spawn handshake serves a later rowless config for the same
// shard, and refuses one for another range, on which the fleet would
// respawn.
func TestWorkerKeepsRowsAcrossRuns(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	prog := Program{Algorithm: "metivier"}
	cfg := congest.ShardConfig{Index: 1, Lo: 2, Hi: 4, N: 4, Seed: 1}
	// serve starts a worker on a fresh pipe and returns the coordinator's
	// end and the worker's exit error.
	serve := func() (*frameConn, chan error) {
		coord, worker := net.Pipe()
		t.Cleanup(func() { coord.Close() })
		done := make(chan error, 1)
		go func() { done <- serveConn(worker) }()
		return newFrameConn(coord), done
	}
	// refused ships a rowless config for cfg and requires the worker to
	// answer with an error frame naming what, and to exit with that error.
	refused := func(fc *frameConn, done chan error, cfg congest.ShardConfig, what string) {
		t.Helper()
		err := handshake(fc, time.Second, nil, prog, cfg)
		if err == nil || !strings.Contains(err.Error(), "rejected config") || !strings.Contains(err.Error(), what) {
			t.Fatalf("rowless config for [%d, %d): handshake returned %v, want a rejection naming %q", cfg.Lo, cfg.Hi, err, what)
		}
		if err := <-done; err == nil || !strings.Contains(err.Error(), what) {
			t.Fatalf("worker exited with %v, want an error naming %q", err, what)
		}
	}
	// finish ends the worker's run with the finish/outputs exchange.
	finish := func(fc *frameConn) {
		t.Helper()
		var e encoder
		encodeFinish(&e)
		if err := fc.writeFrame(e.buf); err != nil {
			t.Fatal(err)
		}
		payload, err := fc.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind, _, _ := payloadKind(payload); kind != fkOutputs {
			t.Fatalf("worker answered finish with a %s frame", kind)
		}
	}

	fc, done := serve()
	refused(fc, done, cfg, "without rows and holds none")

	fc, done = serve()
	if err := handshake(fc, time.Second, g, prog, cfg); err != nil {
		t.Fatalf("spawn handshake: %v", err)
	}
	finish(fc)
	if err := handshake(fc, time.Second, nil, prog, cfg); err != nil {
		t.Fatalf("reuse handshake for the same shard: %v", err)
	}
	finish(fc)
	other := cfg
	other.Lo = 1
	refused(fc, done, other, "its rows are for")
}
