// Command dronerl-serve runs the policy-serving daemon: an HTTP front door
// that batches concurrent inference requests into single forward passes,
// applies backpressure when the admission queue fills, and hot-reloads
// POSTed policy snapshots with zero downtime.
//
// Usage:
//
//	dronerl-serve [-addr 127.0.0.1:8080] [-backend float|quant|systolic]
//	              [-workers 2] [-maxbatch 32] [-window 2ms] [-queue 256]
//	              [-model snapshot.gob] [-seed 1] [-pprof addr]
//
// With -model the daemon serves that snapshot (as written by droneflight
// -save or GET /v1/policy of another instance); without it a fresh NavNet is
// initialized from -seed — useful for load testing and smoke tests.
//
// Endpoints: POST /v1/act, POST+GET /v1/policy, GET /healthz, GET /statsz.
// SIGINT/SIGTERM drain in-flight requests, print a final stats summary and
// exit 0.
//
// -pprof mounts net/http/pprof on its own debug listener (e.g. -pprof
// 127.0.0.1:6060), kept off the serving port so profiling traffic never
// competes with inference admission and the profiler is never exposed on
// the serving address by accident. Off by default.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dronerl/internal/nn"
	"dronerl/internal/serve"

	// Linked for their backend registrations, so -backend can name the
	// quant and systolic substrates.
	_ "dronerl/internal/hw"
	_ "dronerl/internal/qnn"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it serves until ctx is cancelled, drains, prints
// the summary line and the final stats as JSON to stdout, and returns the
// exit status — 2 for a bad flag, an unreadable -model, a configuration
// serve.New refuses (an unknown -backend names the registry) or an address
// it cannot listen on, 1 if serving fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dronerl-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	backend := fs.String("backend", "float", "inference backend: float, quant or systolic")
	workers := fs.Int("workers", 2, "inference workers (each owns a policy replica)")
	maxBatch := fs.Int("maxbatch", 32, "largest coalesced batch (1 = single-flight)")
	window := fs.Duration("window", 2*time.Millisecond, "how long to hold an under-filled batch open")
	queue := fs.Int("queue", 256, "admission queue depth; beyond it requests get 429")
	model := fs.String("model", "", "serve this snapshot file (default: random-init from -seed)")
	seed := fs.Int64("seed", 1, "weight init seed when no -model is given")
	pprofAddr := fs.String("pprof", "", "mount net/http/pprof on this separate debug listener (off when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	snap, err := loadPolicy(*model, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "dronerl-serve:", err)
		return 2
	}

	s, err := serve.New(serve.Config{
		Addr:        *addr,
		Backend:     *backend,
		Workers:     *workers,
		MaxBatch:    *maxBatch,
		BatchWindow: *window,
		QueueDepth:  *queue,
		Snapshot:    snap,
	})
	if err != nil {
		fmt.Fprintln(stderr, "dronerl-serve:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "dronerl-serve:", err)
		return 2
	}
	fmt.Fprintf(stdout, "dronerl-serve: listening on http://%s (backend=%s workers=%d maxbatch=%d window=%v queue=%d)\n",
		ln.Addr(), *backend, *workers, *maxBatch, *window, *queue)

	if *pprofAddr != "" {
		dln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "dronerl-serve: pprof listener:", err)
			return 2
		}
		// A dedicated mux: the debug listener serves only the profiler, the
		// serving mux never learns the /debug/pprof/ routes.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(stdout, "dronerl-serve: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				fmt.Fprintln(stderr, "dronerl-serve: pprof:", err)
			}
		}()
		defer dln.Close()
	}

	if err := s.Serve(ctx, ln); err != nil {
		fmt.Fprintln(stderr, "dronerl-serve:", err)
		return 1
	}

	st := s.Stats()
	fmt.Fprintf(stdout, "dronerl-serve: drained; served=%d rejected=%d reloads=%d batches=%d mean_batch=%.2f p50=%.3fms p99=%.3fms energy=%.3fmJ\n",
		st.Served, st.Rejected, st.Reloads, st.Batches, st.MeanBatch, st.P50Ms, st.P99Ms, st.TotalEnergyMJ)
	if err := json.NewEncoder(stdout).Encode(st); err != nil {
		fmt.Fprintln(stderr, "dronerl-serve:", err)
		return 1
	}
	return 0
}

// loadPolicy reads the snapshot file, or fabricates a seeded random policy
// when no file is given.
func loadPolicy(path string, seed int64) (*nn.Snapshot, error) {
	if path == "" {
		spec := nn.NavNetSpec()
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(seed)))
		return nn.TakeSnapshot(net, spec.Name), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nn.ReadSnapshot(f)
}
