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
	addr := flag.String("addr", "127.0.0.1:9090", "listen address for actor connections")
	cfgName := flag.String("config", "L3", "training topology: L2, L3, L4 or E2E")
	slots := flag.Int("slots", 2, "actor slots (one replay shard each)")
	steps := flag.Int("steps", 4000, "fleet env steps to train through")
	trainEvery := flag.Int("train-every", 4, "env steps per weight update")
	syncEvery := flag.Int("sync-every", 8, "weight updates per policy publish")
	ckptPath := flag.String("checkpoint", "", "resumable checkpoint file (resumed when present)")
	ckptEvery := flag.Int("checkpoint-every", 32, "weight updates per checkpoint save")
	model := flag.String("model", "", "start from this meta-model snapshot (default: random-init from -seed)")
	seed := flag.Int64("seed", 1, "weight init seed when no -model is given")
	idle := flag.Duration("idle", 0, "end the run after the whole fleet has been absent this long (0: wait forever)")
	flag.Parse()

	cfg, err := nn.ParseConfig(*cfgName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(2)
	}

	spec := nn.NavNetSpec()
	agent, err := buildAgent(spec, cfg, *model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(2)
	}

	var resume *dist.Checkpoint
	if *ckptPath != "" {
		cp, err := dist.LoadCheckpoint(*ckptPath)
		switch {
		case err == nil:
			resume = cp
			fmt.Printf("dronerl-learner: resuming %s (env=%d train=%d actors=%d)\n",
				*ckptPath, cp.EnvSteps, cp.TrainSteps, len(cp.Slots))
		case os.IsNotExist(err):
			// Fresh run; the path is where checkpoints will go.
		case errors.Is(err, dist.ErrCheckpointCorrupt):
			fmt.Fprintf(os.Stderr, "dronerl-learner: %s is corrupt: %v (delete it to start over)\n", *ckptPath, err)
			os.Exit(1)
		default:
			fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(2)
	}
	fmt.Printf("dronerl-learner: listening on %s (config=%s slots=%d steps=%d)\n",
		ln.Addr(), cfg, *slots, *steps)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	st, err := learner.Run(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(1)
	}
	fmt.Printf("dronerl-learner: done in %v; env=%d train=%d publishes=%d checkpoints=%d "+
		"connects=%d resumes=%d disconnects=%d drops=%+v sfd=%.2f checkpoint_energy=%.3fmJ\n",
		time.Since(start).Round(time.Millisecond), st.EnvSteps, st.TrainSteps, st.Publishes,
		st.Checkpoints, st.Connects, st.Resumes, st.Disconnects, st.DropReasons,
		tracker.SafeFlightDistance(), ledger.TotalEnergyPJ()/1e9)
	if err := json.NewEncoder(os.Stdout).Encode(st); err != nil {
		fmt.Fprintln(os.Stderr, "dronerl-learner:", err)
		os.Exit(1)
	}
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
