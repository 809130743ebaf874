// Command dronerl-actor flies one remote actor of the distributed pipeline:
// it connects to a dronerl-learner, receives the policy and exploration
// schedule in the welcome, then steps its private world — streaming
// experience to the learner and adopting published policies at episode
// boundaries. The learner being unreachable never stops the flying:
// experience buffers locally and replays on reconnect, with exponential
// backoff between attempts.
//
// Usage:
//
//	dronerl-actor [-addr 127.0.0.1:9090] [-env indoor-apartment]
//	              [-steps 2000] [-seed 2] [-id 0] [-flush 8] [-buffer 4096]
//
// Pass -id with a previously assigned actor ID (printed at exit) to reclaim
// the same replay shard after a crash or restart; 0 asks the learner for a
// fresh slot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dronerl/internal/dist"
	"dronerl/internal/env"
	"dronerl/internal/nn"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it flies until the steps are done or ctx is
// cancelled, prints the summary line and the stats as JSON to stdout, and
// returns the exit status — 2 with usage for a bad flag, an empty -addr or
// an unknown -env, 1 if the actor fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dronerl-actor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9090", "learner address")
	envName := fs.String("env", "indoor-apartment", "scenario to fly (see droneflight -list)")
	steps := fs.Int("steps", 2000, "env steps to fly")
	seed := fs.Int64("seed", 2, "world + exploration seed")
	id := fs.Uint64("id", 0, "actor ID to reclaim (0: ask for a fresh slot)")
	flush := fs.Int("flush", 8, "transitions per experience frame")
	buffer := fs.Int("buffer", 4096, "local ring capacity while disconnected")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dronerl-actor: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if *addr == "" {
		return usage("-addr is empty: name the learner to connect to")
	}
	scenario, ok := env.LookupScenario(*envName)
	if !ok {
		return usage("unknown scenario %q (droneflight -list shows the catalog)", *envName)
	}

	fmt.Fprintf(stdout, "dronerl-actor: flying %s for %d steps against %s\n", *envName, *steps, *addr)
	start := time.Now()
	st, err := dist.RunActor(ctx, dist.ActorConfig{
		Addr:       *addr,
		Spec:       nn.NavNetSpec(),
		World:      scenario.Build(*seed),
		Steps:      *steps,
		Seed:       *seed,
		ActorID:    *id,
		FlushEvery: *flush,
		BufferCap:  *buffer,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(stderr, "dronerl-actor:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dronerl-actor: done in %v; id=%d steps=%d sent=%d undelivered=%d dropped=%d connects=%d adoptions=%d\n",
		time.Since(start).Round(time.Millisecond), st.ActorID, st.Steps, st.Sent,
		st.Undelivered, st.Dropped, st.Connects, st.Adoptions)
	if err := json.NewEncoder(stdout).Encode(st); err != nil {
		fmt.Fprintln(stderr, "dronerl-actor:", err)
		return 1
	}
	return 0
}
