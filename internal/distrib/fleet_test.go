package distrib

import (
	"errors"
	"net"
	"os"
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
	cfg := congest.ShardConfig{NumShards: 1, Hi: 2, N: 2, Seed: 1}
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
