// Command misnode is a standalone shard worker for the distributed
// CONGEST driver (internal/distrib). It listens on a unix or tcp socket
// and serves one run per accepted connection: the coordinator ships the
// shard config, then round frames, and the worker answers with sweep
// results until the finish/outputs exchange.
//
// A coordinator using congest.DriverDistributed with a distrib.DialFleet
// connects to one misnode per shard:
//
//	misnode -listen tcp:127.0.0.1:9801 &
//	misnode -listen tcp:127.0.0.1:9802 &
//	# coordinator: distrib.NewDialFleet(g, prog, []string{"127.0.0.1:9801", "127.0.0.1:9802"})
//
// With -once the worker exits after its first run, which is what the
// crash-recovery tests and throwaway fleets want; without it the accept
// loop serves runs until killed. The worker opens no socket but the one
// it listens on. What a shard did is in the coordinator's trace: each
// round's sent, delivered and live counts (trace.EvRoundEnd) and, with
// congest.Options.EventTiming set, each shard's frame bytes and round-trip
// time (trace.EvFrame).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"repro/internal/distrib"
)

func main() {
	// Self-exec hook first: when an ExecFleet re-runs this binary as a
	// spawned worker, it must never reach the flag parsing below.
	distrib.MaybeWorker()
	os.Exit(run())
}

// usageError reports a bad flag combination on stderr together with the
// flag summary, and returns the exit code.
func usageError(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func run() int {
	listen := flag.String("listen", "", "listen address: unix:/path/to.sock or tcp:host:port (required)")
	once := flag.Bool("once", false, "serve a single run and exit instead of accepting forever")
	flag.Parse()

	if flag.NArg() > 0 {
		return usageError("unexpected arguments: %v", flag.Args())
	}
	if *listen == "" {
		return usageError("-listen is required")
	}
	network, addr, ok := strings.Cut(*listen, ":")
	if !ok || addr == "" || (network != "unix" && network != "tcp") {
		return usageError("-listen must be unix:/path or tcp:host:port, got %q", *listen)
	}

	ln, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "misnode: listen %s: %v\n", *listen, err)
		return 1
	}
	defer ln.Close()
	fmt.Printf("misnode: listening on %s:%s\n", network, ln.Addr())

	for {
		c, err := ln.Accept()
		if err != nil {
			fmt.Fprintf(os.Stderr, "misnode: accept: %v\n", err)
			return 1
		}
		if err := distrib.ServeConn(c); err != nil {
			fmt.Fprintf(os.Stderr, "misnode: run: %v\n", err)
		}
		c.Close()
		if *once {
			return 0
		}
	}
}
