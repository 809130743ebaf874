// Command dronerl-learner runs the distributed pipeline's central trainer:
// it listens for dronerl-actor connections, merges their experience streams
// into per-actor replay shards, trains the policy, broadcasts publishes to
// the fleet, and checkpoints durably so a crashed learner resumes exactly
// where it stopped.
//
// Usage:
//
//	dronerl-learner [-addr 127.0.0.1:9090] [-config L2|L3|L4|E2E]
//	                [-slots 2] [-steps 4000] [-train-every 4] [-sync-every 8]
//	                [-checkpoint learner.ckpt] [-checkpoint-every 32]
//	                [-model snapshot.gob] [-seed 1] [-idle 0]
//
// With -model the policy starts from that meta-model snapshot (as written
// by droneflight -save); without it a fresh NavNet is initialized from
// -seed. With -checkpoint, a usable checkpoint at that path is resumed
// automatically — delete the file to start over — and new checkpoints are
// written there atomically; each save is charged to the energy ledger as an
// STT-MRAM write. SIGINT/SIGTERM stops the run; with -checkpoint the next
// invocation resumes it. The exit line and the stats JSON after it break the
// sessions the learner had to drop down by cause (DropReasons: timeout,
// truncated, corrupt, rejected experience).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dronerl/internal/dist"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command: it trains until the fleet has flown -steps or
// ctx is cancelled, prints the summary line and the stats as JSON to stdout,
// and returns the exit status — 2 with usage for a bad flag, an empty -addr
// or an unknown -config, 2 for a model or learner configuration it cannot
// use, 1 for a corrupt checkpoint, an address it cannot listen on or a
// failed run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dronerl-learner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for actor connections (port 0 picks a free port)")
	cfgName := fs.String("config", "L3", "training topology: L2, L3, L4 or E2E")
	slots := fs.Int("slots", 2, "actor slots (one replay shard each)")
	steps := fs.Int("steps", 4000, "fleet env steps to train through")
	trainEvery := fs.Int("train-every", 4, "env steps per weight update")
	syncEvery := fs.Int("sync-every", 8, "weight updates per policy publish")
	ckptPath := fs.String("checkpoint", "", "resumable checkpoint file (resumed when present)")
	ckptEvery := fs.Int("checkpoint-every", 32, "weight updates per checkpoint save")
	model := fs.String("model", "", "start from this meta-model snapshot (default: random-init from -seed)")
	seed := fs.Int64("seed", 1, "weight init seed when no -model is given")
	idle := fs.Duration("idle", 0, "end the run after the whole fleet has been absent this long (0: wait forever)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "dronerl-learner:", err)
		return code
	}
	usage := func(err error) int {
		fail(2, err)
		fs.Usage()
		return 2
	}
	if *addr == "" {
		return usage(errors.New("-addr is empty: name the address to listen on"))
	}
	cfg, err := nn.ParseConfig(*cfgName)
	if err != nil {
		return usage(err)
	}

	spec := nn.NavNetSpec()
	agent, err := buildAgent(spec, cfg, *model, *seed)
	if err != nil {
		return fail(2, err)
	}

	var resume *dist.Checkpoint
	if *ckptPath != "" {
		cp, err := dist.LoadCheckpoint(*ckptPath)
		switch {
		case err == nil:
			resume = cp
			fmt.Fprintf(stdout, "dronerl-learner: resuming %s (env=%d train=%d actors=%d)\n",
				*ckptPath, cp.EnvSteps, cp.TrainSteps, len(cp.Slots))
		case os.IsNotExist(err):
			// Fresh run; the path is where checkpoints will go.
		case errors.Is(err, dist.ErrCheckpointCorrupt):
			return fail(1, fmt.Errorf("%s is corrupt: %w (delete it to start over)", *ckptPath, err))
		default:
			return fail(1, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(1, err)
	}

	ledger := mem.NewCompactLedger()
	tracker := rl.TrackerFor(*steps)
	learner, err := dist.NewLearner(dist.LearnerConfig{
		Agent: agent, Spec: spec, Cfg: cfg, Listener: ln,
		ActorSlots:      *slots,
		TotalSteps:      *steps,
		TrainEvery:      *trainEvery,
		SyncEvery:       *syncEvery,
		IdleTimeout:     *idle,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Resume:          resume,
		Ledger:          ledger,
		Tracker:         tracker,
	})
	if err != nil {
		ln.Close()
		return fail(2, err)
	}
	fmt.Fprintf(stdout, "dronerl-learner: listening on %s (config=%s slots=%d steps=%d)\n",
		ln.Addr(), cfg, *slots, *steps)

	start := time.Now()
	st, err := learner.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "dronerl-learner: done in %v; env=%d train=%d publishes=%d checkpoints=%d "+
		"connects=%d resumes=%d disconnects=%d drops=%+v sfd=%.2f checkpoint_energy=%.3fmJ\n",
		time.Since(start).Round(time.Millisecond), st.EnvSteps, st.TrainSteps, st.Publishes,
		st.Checkpoints, st.Connects, st.Resumes, st.Disconnects, st.DropReasons,
		tracker.SafeFlightDistance(), ledger.TotalEnergyPJ()/1e9)
	if err := json.NewEncoder(stdout).Encode(st); err != nil {
		return fail(1, err)
	}
	return 0
}

// buildAgent deploys the meta-model snapshot when given, or initializes
// fresh seeded weights.
func buildAgent(spec nn.ArchSpec, cfg nn.Config, model string, seed int64) (*rl.Agent, error) {
	opts := rl.Options{Seed: seed}
	if model == "" {
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(seed)))
		return transfer.Deploy(nn.TakeSnapshot(net, spec.Name), spec, cfg, opts)
	}
	f, err := os.Open(model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := nn.ReadSnapshot(f)
	if err != nil {
		return nil, err
	}
	return transfer.Deploy(snap, spec, cfg, opts)
}
