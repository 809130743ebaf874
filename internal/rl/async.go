package rl

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
)

// This file is the online-learning loop: one or more Actors feeding replay,
// one learner training on it.
//
//	┌──────────────┐  transitions   ┌───────────────┐   ┌───────────────┐
//	│ actor 0..N-1 │ ─────────────▶ │ ReplayShards  │──▶│    learner    │
//	│ (Actor.Step: │                │ (one shard    │   │ (batched      │
//	│  own world,  │                │  per actor)   │   │  TrainStep)   │
//	│  own rng)    │                └───────────────┘   └───────┬───────┘
//	└──────┬───────┘                                            │ publish
//	       ▲        snapshot swap at episode boundary   ┌───────▼───────┐
//	       └─────────────────────────────────────────── │  PolicyBoard  │
//	                                                    └───────────────┘
//
// With one world the loop is the deterministic serial schedule: one Actor
// flying the agent's own network with the agent's rng, TrainStep called
// inline every TrainEvery steps — the paper's on-drone loop, and the
// historical online-learning outputs bit for bit (pinned by transfer's
// TestRunOnlineActorsOneGolden).
//
// With N worlds, N actors step private environment copies concurrently, each
// flying a private policy replica that runs its own frozen prefix, and push
// experience into per-actor replay shards; the Learner on the calling
// goroutine (the loop internal/dist's network learner runs too) samples
// across the shards (deterministic interleave), runs the
// batched TrainStep on the shared clock's cadence and publishes the trainable
// weights through atomic double-buffered nn.Snapshot swaps that actors pick
// up at episode boundaries. Epsilon and target-sync schedules key off the
// shared monotonic Clock, so behaviour is well-defined no matter how the
// goroutines interleave. Under E2E every published snapshot carries the whole
// network — the expensive baseline the paper's co-design argument is built on.

// OnlineLoop runs online RL for an agent across one or more actors.
type OnlineLoop struct {
	// Agent is the learner: its network is the canonical policy, its rng
	// drives replay sampling (and, with one actor, action selection), and
	// its options supply the schedules.
	Agent *Agent
	// Worlds holds one private environment per actor; len(Worlds) is the
	// actor count. Worlds must be independently seeded and spawned by the
	// caller (env.World.Clone shares the immutable scene cheaply).
	Worlds []*env.World
	// Tracker accumulates flight statistics across all actors. Actor
	// updates are serialized; with several actors their interleaving — and
	// therefore the tracker's step order — is nondeterministic.
	Tracker *metrics.FlightTracker
	// TrainEvery is the learner's cadence in environment steps of the
	// shared clock: the k-th weight update becomes due when the actors have
	// taken k*TrainEvery steps together (default 4, the serial loop's
	// cadence).
	TrainEvery int
	// SyncEvery overrides the agent's policy-publish interval in train
	// steps (0 keeps the option value).
	SyncEvery int
	// OnPublish, if set, observes every policy publish — the hook the
	// energy accounting uses to charge per-snapshot-publish NVM writes.
	// It is called from the learner goroutine.
	OnPublish func(version uint64)

	// shards is the replay the loop's actors feed. It outlives a Run, so a
	// loop run again keeps learning from what it already collected — while
	// the agent keeps the training boundary and train backend it was
	// collected under: a transition's cached features are void under any
	// other, so a new one (SetConfig, ActivateTrainBackend, an AdoptPolicy
	// that rebuilds the backend) starts an empty replay.
	shards       *ReplayShards
	shardsFrom   int
	shardsEngine nn.TrainableBackend
}

// OnlineStats summarizes one OnlineLoop run.
type OnlineStats struct {
	// Actors is the number of concurrent actors that ran.
	Actors int
	// EnvSteps and TrainSteps count environment steps and completed weight
	// updates (no-op train attempts on an underfilled replay excluded).
	EnvSteps, TrainSteps int
	// Publishes counts policy snapshots published by the learner and
	// Adoptions how many times an actor picked one up at an episode
	// boundary; both are zero in the single-actor deterministic mode,
	// where actor and learner share one network.
	Publishes, Adoptions int
}

// Run executes the loop for the given number of total environment steps,
// split evenly across the actors. It returns once every actor has finished
// its share and the learner has drained every due train step, or when ctx is
// cancelled (reported as ctx.Err(); in-flight steps finish, every goroutine
// exits before Run returns). Running a loop again continues the flight from
// each world's current pose, with the replay collected so far (see shards).
func (l *OnlineLoop) Run(ctx context.Context, iters int) (OnlineStats, error) {
	a := l.Agent
	if len(l.Worlds) == 0 {
		panic("rl: OnlineLoop needs at least one world")
	}
	l.TrainEvery, l.SyncEvery = a.cadence(l.TrainEvery, l.SyncEvery)
	if l.shards == nil || l.shards.Shards() != len(l.Worlds) ||
		l.shardsFrom != a.Net.TrainFrom() || l.shardsEngine != a.trainBackend {
		l.shards = NewReplayShards(len(l.Worlds), a.opts.ReplayCapacity)
		l.shardsFrom, l.shardsEngine = a.Net.TrainFrom(), a.trainBackend
	}
	if len(l.Worlds) == 1 {
		return l.runSerial(ctx, iters)
	}
	return l.runFleet(ctx, iters)
}

// actor builds an Actor flying net in w with the agent's schedule, fixing
// what its transitions carry — and the replay keeps — to what the agent's
// TrainStep reads: the train backend's integer boundary words when it can
// make them and the actor flies the agent's own network (the featurizer is
// not goroutine-safe), and the actor then also takes its greedy actions from
// those words through the backend's integer tail; frames otherwise under a
// train backend, which stacks them itself while the actor acts on its float
// network; float boundary features for the float learner.
func (a *Agent) actor(net *nn.Network, w *env.World, rng *rand.Rand) *Actor {
	act := &Actor{Net: net, World: w, Rng: rng, Schedule: a.opts, Actions: a.actions}
	switch fz, ok := a.trainBackend.(nn.BoundaryFeaturizer); {
	case ok && net == a.Net:
		act.QFeatures = fz
	case a.trainBackend == nil:
		act.FloatFeatures = true
	}
	return act
}

// runSerial is the deterministic single-actor schedule: one Actor flying the
// agent's own network with the agent's rng and clock, TrainStep called inline
// every TrainEvery steps.
func (l *OnlineLoop) runSerial(ctx context.Context, iters int) (OnlineStats, error) {
	a := l.Agent
	stats := OnlineStats{Actors: 1}
	envStart, trainStart := a.clock.EnvSteps(), a.clock.TrainSteps()
	a.SetReplaySource(l.shards)
	defer a.SetReplaySource(nil)
	act := a.actor(a.Net, l.Worlds[0], a.rng)
	var err error
	for i := 0; i < iters; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		tr, res := act.Step(a.clock.TickEnv())
		l.shards.PushTo(0, tr)
		if l.Tracker != nil {
			l.Tracker.Step(res.Reward, res.Crashed, res.FlightDistance)
		}
		if i%l.TrainEvery == 0 {
			a.TrainStep()
		}
	}
	stats.EnvSteps = int(a.clock.EnvSteps() - envStart)
	stats.TrainSteps = int(a.clock.TrainSteps() - trainStart)
	return stats, err
}

// runFleet is the concurrent schedule: one goroutine per actor, each flying
// a private replica with a private rng, and the Learner on the calling
// goroutine.
func (l *OnlineLoop) runFleet(ctx context.Context, iters int) (OnlineStats, error) {
	a := l.Agent
	n := len(l.Worlds)
	clock := a.clock
	stats := OnlineStats{Actors: n}
	envStart, trainStart := clock.EnvSteps(), clock.TrainSteps()

	learner := &Learner{
		Agent: a, Replay: l.shards, Board: nn.NewPolicyBoard(), Tracker: l.Tracker,
		TrainEvery: l.TrainEvery, SyncEvery: l.SyncEvery, OnPublish: l.OnPublish,
	}
	initial := learner.Board.Publish(a.Net, a.spec.Name)

	// Each actor flies its own policy replica; the frozen prefix of every
	// replica is identical for the whole run, only the trainable tail is
	// refreshed through the board.
	actors := make([]*Actor, n)
	for i := range actors {
		net := a.spec.Build()
		net.SetConfig(a.cfg)
		if err := net.CopyWeightsFrom(a.Net); err != nil {
			return stats, err
		}
		actors[i] = a.actor(net, l.Worlds[i], rand.New(rand.NewSource(a.opts.Seed+7919*int64(i+1))))
	}

	// An actor error cancels the run.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		cancel()
	}

	var adoptions atomic.Int64
	var wg sync.WaitGroup
	for id, act := range actors {
		share := iters / n
		if id < iters%n {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastSeen := initial
			for k := 0; k < share && runCtx.Err() == nil; k++ {
				tr, res := act.Step(clock.TickEnv())
				l.shards.PushTo(id, tr)
				learner.Track(res.Reward, res.Crashed, res.FlightDistance)
				if !res.Crashed {
					continue
				}
				// Episode boundary: pick up the latest published policy.
				v, changed, err := learner.Board.Adopt(act.Net, lastSeen)
				if err != nil {
					fail(err)
					return
				}
				lastSeen = v
				if changed {
					adoptions.Add(1)
				}
			}
		}()
	}

	// The learner's only error is runCtx's: reported below as the actor
	// failure that cancelled it, or as ctx's own.
	stats.Publishes, _ = learner.Run(runCtx, envStart, iters)
	wg.Wait()

	stats.EnvSteps = int(clock.EnvSteps() - envStart)
	stats.TrainSteps = int(clock.TrainSteps() - trainStart)
	stats.Adoptions = int(adoptions.Load())
	if e := firstErr.Load(); e != nil {
		return stats, *e
	}
	return stats, ctx.Err()
}
