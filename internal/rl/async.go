package rl

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// This file is the asynchronous actor/learner online-learning pipeline, the
// concurrent rebuild of the serial act→store→train loop in trainer.go.
//
//	          ┌─────────────┐   boundary features    ┌──────────────┐
//	obs ────▶ │ prefix      │ ──────────────────────▶│ actor 0..N-1 │──▶ act
//	(batched) │ server      │     (one GEMM per      │ (own FC tail,│
//	          │ (frozen     │      layer for all     │  own world,  │
//	          │  conv+FC)   │      actors' obs)      │  own rng)    │
//	          └─────────────┘                        └──────┬───────┘
//	                 ▲ snapshot swap at episode boundary    │ transitions
//	          ┌──────┴──────┐      ┌───────────────┐        ▼
//	          │ PolicyBoard │ ◀────│    learner    │◀── ReplayShards
//	          └─────────────┘ pub  │ (batched      │    (per-actor,
//	                               │  TrainStep)   │     lock-aware)
//	                               └───────────────┘
//
// N actors step private environment copies concurrently and push experience
// into per-actor replay shards; the single learner samples across the shards
// (deterministic interleave) and runs the existing batched TrainStep,
// publishing the trainable weights through atomic double-buffered
// nn.Snapshot swaps that actors pick up at episode boundaries. Epsilon and
// target-sync schedules key off the shared monotonic Clock, so behaviour is
// well-defined no matter how the goroutines interleave.
//
// Under the transfer topologies (L2/L3/L4) the layers below the training
// boundary are frozen, which the pipeline exploits twice: a prefix server
// evaluates the frozen feature extractor for every actor's observation in
// one batched pass (one GEMM per layer for all actors — in the modeled
// hardware, one weight stream from the STT-MRAM stack serving the whole
// actor fleet), and the boundary features ride along with each transition so
// the learner's TrainStep re-runs only the trainable FC tail. Under E2E
// nothing is frozen: every actor runs full private forward passes and every
// published snapshot carries the whole network — the expensive baseline the
// paper's co-design argument is built on.
//
// With a single actor the pipeline collapses to the deterministic serial
// schedule: one goroutine interleaving actor and learner exactly like
// Trainer.Run, sharing the agent's rng stream, so a seeded actors=1 run
// reproduces the historical online-learning outputs bit for bit (pinned by
// TestOnlineLoopExactMatchesTrainer and transfer's TestRunOnlineActorsOneGolden).

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

	trackMu sync.Mutex
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
	// PrefixRows is the run's share of Agent.PrefixRows: rows the learner
	// ran from the frame instead of from cached boundary features.
	PrefixRows int
}

// Run executes the loop for the given number of total environment steps,
// split evenly across the actors. It returns once every actor has finished
// its share and the learner has drained every due train step, or when ctx is
// cancelled (reported as ctx.Err(); in-flight steps finish, every goroutine
// exits before Run returns).
func (l *OnlineLoop) Run(ctx context.Context, iters int) (OnlineStats, error) {
	if len(l.Worlds) == 0 {
		panic("rl: OnlineLoop needs at least one world")
	}
	if l.TrainEvery <= 0 {
		l.TrainEvery = 4
	}
	if l.SyncEvery <= 0 {
		l.SyncEvery = l.Agent.opts.SyncEvery
	}
	if l.SyncEvery <= 0 {
		l.SyncEvery = 8
	}
	if len(l.Worlds) == 1 {
		return l.runExact(ctx, iters)
	}
	return l.runAsync(ctx, iters)
}

// track serializes tracker updates across actors.
func (l *OnlineLoop) track(reward float64, crashed bool, dist float64) {
	if l.Tracker == nil {
		return
	}
	l.trackMu.Lock()
	l.Tracker.Step(reward, crashed, dist)
	l.trackMu.Unlock()
}

// runExact is the deterministic single-actor schedule: the exact serial
// act→store→train interleaving of Trainer.Run on one goroutine, with the
// actor and learner sharing the agent's network and rng stream — but flowing
// through the pipeline's components (shards, clock, cached boundary
// features), which are stream-equivalent by construction.
func (l *OnlineLoop) runExact(ctx context.Context, iters int) (OnlineStats, error) {
	a := l.Agent
	w := l.Worlds[0]
	shards := NewReplayShards(1, a.opts.ReplayCapacity)
	a.SetReplaySource(shards)
	defer a.SetReplaySource(nil)

	stats := OnlineStats{Actors: 1}
	envStart, trainStart, rowsStart := a.clock.EnvSteps(), a.clock.TrainSteps(), a.prefixRows
	boundary := a.Net.TrainFrom()
	last := len(a.Net.Layers)
	obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
	// A train backend that freezes a prefix runs every captured frame through
	// it once, here, exploration steps included: the words are this
	// transition's QNextFeat and the next one's QFeat, so every transition is
	// pushed fully cached.
	qfeat := func(*tensor.Tensor) []int16 { return nil }
	if fz, ok := a.trainBackend.(nn.BoundaryFeaturizer); ok {
		qfeat = fz.BoundaryFeatures
	}
	qobs := qfeat(obs)
	prevOrd := int64(-1)
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		t := a.clock.TickEnv()
		var feat *tensor.Tensor
		var action int
		if a.rng.Float64() < a.opts.EpsilonAt(t) {
			action = a.rng.Intn(a.actions)
		} else if boundary > 0 {
			// Split greedy pass: frozen prefix to the boundary, trainable
			// tail to the Q-values — the same layer sequence Net.Forward
			// runs, so the action is bit-identical, and the boundary
			// activation becomes the transition's cached feature.
			feat = a.Net.ForwardRange(0, boundary, obs)
			action = a.Net.ForwardRange(boundary, last, feat).ArgMax()
		} else {
			action = a.Net.Forward(obs).ArgMax()
		}
		if feat != nil && prevOrd >= 0 {
			// This observation is the previous transition's next-state:
			// backfill its cached features for the learner.
			shards.SetNextFeat(0, prevOrd, feat)
		}
		res := w.Step(env.Action(action))
		next := env.DepthImage(res.Depths, w.Camera.MaxRange)
		qnext := qfeat(next)
		prevOrd = shards.PushTo(0, Transition{
			State: obs, Action: action, Reward: res.Reward,
			Next: next, Done: res.Crashed, Feat: feat,
			QFeat: qobs, QNextFeat: qnext,
		})
		l.track(res.Reward, res.Crashed, res.FlightDistance)
		if i%l.TrainEvery == 0 {
			a.TrainStep()
		}
		obs, qobs = next, qnext
	}
	stats.EnvSteps = int(a.clock.EnvSteps() - envStart)
	stats.TrainSteps = int(a.clock.TrainSteps() - trainStart)
	stats.PrefixRows = a.prefixRows - rowsStart
	return stats, nil
}

// runAsync is the concurrent schedule: one goroutine per actor, a prefix
// server when the topology freezes a prefix, and the learner on the calling
// goroutine.
func (l *OnlineLoop) runAsync(ctx context.Context, iters int) (OnlineStats, error) {
	a := l.Agent
	n := len(l.Worlds)
	boundary := a.Net.TrainFrom()
	clock := a.clock
	stats := OnlineStats{Actors: n}
	envStart, trainStart, rowsStart := clock.EnvSteps(), clock.TrainSteps(), a.prefixRows

	shards := NewReplayShards(n, a.opts.ReplayCapacity)
	a.SetReplaySource(shards)
	defer a.SetReplaySource(nil)

	board := nn.NewPolicyBoard()
	initial := board.Publish(a.Net, a.spec.Name)

	// Each actor flies its own policy replica; the frozen prefix of every
	// replica is identical for the whole run, only the trainable tail is
	// refreshed through the board.
	nets := make([]*nn.Network, n)
	for i := range nets {
		net := a.spec.Build()
		net.SetConfig(a.cfg)
		if err := net.CopyWeightsFrom(a.Net); err != nil {
			return stats, err
		}
		nets[i] = net
	}
	var srv *prefixServer
	if boundary > 0 {
		srvNet := a.spec.Build()
		if err := srvNet.CopyWeightsFrom(a.Net); err != nil {
			return stats, err
		}
		srv = newPrefixServer(srvNet, boundary, n)
		if a.opts.PrefixBackend != "" {
			if err := srv.useBackend(a.opts.PrefixBackend, a.spec, a.cfg); err != nil {
				return stats, err
			}
		}
		go srv.run()
	}

	// Cancellation plumbing: an actor error cancels the run; any
	// cancellation wakes the learner out of its clock wait.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
		cancel()
	}
	wake := make(chan struct{})
	go func() {
		<-runCtx.Done()
		clock.Wake()
		close(wake)
	}()

	var adoptions atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		share := iters / n
		if id < iters%n {
			share++
		}
		wg.Add(1)
		go func(id, share int) {
			defer wg.Done()
			if srv != nil {
				defer srv.depart()
			}
			l.actorLoop(runCtx, actorState{
				id: id, steps: share, net: nets[id], world: l.Worlds[id],
				boundary: boundary, shards: shards, srv: srv, board: board,
				lastSeen: initial,
				rng:      rand.New(rand.NewSource(a.opts.Seed + 7919*int64(id+1))),
			}, &adoptions, fail)
		}(id, share)
	}

	// The learner: the k-th weight update becomes due once the actor fleet
	// has taken k*TrainEvery env steps together — the serial cadence on the
	// shared clock. If the learner lags the fleet it drains the remaining
	// due steps after the actors finish, so the total training work is the
	// same as the serial schedule's regardless of interleaving.
	totalTrain := (iters + l.TrainEvery - 1) / l.TrainEvery
	giveUp := func() bool { return runCtx.Err() != nil }
	trained := 0
	for k := 0; k < totalTrain; k++ {
		clock.WaitEnv(envStart+int64(k*l.TrainEvery)+1, giveUp)
		if giveUp() {
			break
		}
		if a.TrainStep() < 0 {
			continue // replay still below one batch: no update, nothing to publish
		}
		trained++
		if trained%l.SyncEvery == 0 {
			// Publish cadence counts completed weight updates only, so a
			// snapshot (and its charged NVM/SRAM write) always carries new
			// weights.
			v := board.Publish(a.Net, a.spec.Name)
			stats.Publishes++
			if l.OnPublish != nil {
				l.OnPublish(v)
			}
		}
	}
	wg.Wait()
	if srv != nil {
		<-srv.done
	}
	cancel()
	<-wake

	stats.EnvSteps = int(clock.EnvSteps() - envStart)
	stats.TrainSteps = int(clock.TrainSteps() - trainStart)
	stats.PrefixRows = a.prefixRows - rowsStart
	stats.Adoptions = int(adoptions.Load())
	if e := firstErr.Load(); e != nil {
		return stats, *e
	}
	return stats, ctx.Err()
}

// actorState bundles one actor's private state.
type actorState struct {
	id, steps int
	net       *nn.Network
	world     *env.World
	boundary  int
	shards    *ReplayShards
	srv       *prefixServer
	board     *nn.PolicyBoard
	lastSeen  uint64
	rng       *rand.Rand
}

// actorLoop steps one actor: request boundary features from the prefix
// server (batched with the other actors), pick an epsilon-greedy action on
// the private policy tail, step the private world, push the transition to
// the actor's shard, and adopt the latest published policy at episode
// boundaries.
func (l *OnlineLoop) actorLoop(ctx context.Context, s actorState, adoptions *atomic.Int64, fail func(error)) {
	a := l.Agent
	last := len(s.net.Layers)
	obs := env.DepthImage(s.world.Depths(), s.world.Camera.MaxRange)
	prevOrd := int64(-1)
	for k := 0; k < s.steps; k++ {
		if ctx.Err() != nil {
			return
		}
		t := a.clock.TickEnv()
		var feat *tensor.Tensor
		if s.srv != nil {
			feat = s.srv.infer(s.id, obs)
		}
		if feat != nil && prevOrd >= 0 {
			s.shards.SetNextFeat(s.id, prevOrd, feat)
		}
		var action int
		switch {
		case s.rng.Float64() < a.opts.EpsilonAt(t):
			action = s.rng.Intn(a.actions)
		case feat != nil:
			action = s.net.ForwardRange(s.boundary, last, feat).ArgMax()
		default:
			action = s.net.Forward(obs).ArgMax()
		}
		res := s.world.Step(env.Action(action))
		next := env.DepthImage(res.Depths, s.world.Camera.MaxRange)
		prevOrd = s.shards.PushTo(s.id, Transition{
			State: obs, Action: action, Reward: res.Reward,
			Next: next, Done: res.Crashed, Feat: feat,
		})
		l.track(res.Reward, res.Crashed, res.FlightDistance)
		if res.Crashed {
			// Episode boundary: pick up the latest published policy.
			v, changed, err := s.board.Adopt(s.net, s.lastSeen)
			if err != nil {
				fail(err)
				return
			}
			s.lastSeen = v
			if changed {
				adoptions.Add(1)
			}
		}
		obs = next
	}
}

// featReq asks the prefix server for the boundary features of one actor's
// observation.
type featReq struct {
	obs   *tensor.Tensor
	reply chan *tensor.Tensor
}

// prefixServer evaluates the frozen feature extractor for the whole actor
// fleet: it collects one outstanding request per live actor and runs them as
// a single batched pass — one GEMM per frozen layer for all actors, the
// software image of streaming each MRAM-resident weight once per fleet step
// instead of once per actor.
type prefixServer struct {
	net      *nn.Network
	boundary int
	reqs     chan featReq
	leave    chan struct{}
	done     chan struct{}
	alive    int
	replies  []chan *tensor.Tensor

	// batched, when set, evaluates the frozen prefix instead of the float
	// ForwardBatchRange: a backend compiled over the prefix layers only
	// (see useBackend). The quant engine here is the paper's deployment
	// story applied to online learning — the fleet's shared feature
	// extractor runs as one integer GEMM per layer per tick, streaming the
	// MRAM-resident prefix weights once per fleet step.
	batched nn.BatchInferrer
}

// useBackend compiles the server's frozen prefix into the named registry
// backend and routes every flush through its batched-inference hook. The
// prefix sub-network shares the server replica's layers, so the compiled
// backend captures exactly the weights the float path would read.
func (s *prefixServer) useBackend(name string, spec nn.ArchSpec, cfg nn.Config) error {
	prefix := &nn.Network{Layers: s.net.Layers[:s.boundary]}
	b, err := nn.NewBackendFor(name, prefix, spec, cfg)
	if err != nil {
		return fmt.Errorf("rl: building %q prefix backend: %w", name, err)
	}
	bi, ok := b.(nn.BatchInferrer)
	if !ok {
		return fmt.Errorf("rl: prefix backend %q has no batched inference path", name)
	}
	s.batched = bi
	return nil
}

func newPrefixServer(net *nn.Network, boundary, actors int) *prefixServer {
	s := &prefixServer{
		net:      net,
		boundary: boundary,
		reqs:     make(chan featReq, actors),
		leave:    make(chan struct{}, actors),
		done:     make(chan struct{}),
		alive:    actors,
		replies:  make([]chan *tensor.Tensor, actors),
	}
	for i := range s.replies {
		s.replies[i] = make(chan *tensor.Tensor, 1)
	}
	return s
}

// infer requests the boundary features of obs and blocks until the batched
// pass containing it completes. The returned tensor is freshly allocated and
// owned by the caller.
func (s *prefixServer) infer(actor int, obs *tensor.Tensor) *tensor.Tensor {
	s.reqs <- featReq{obs: obs, reply: s.replies[actor]}
	return <-s.replies[actor]
}

// depart tells the server one actor has finished.
func (s *prefixServer) depart() { s.leave <- struct{}{} }

// run is the server loop: gather one request per live actor, flush the
// batch, repeat until every actor departed.
func (s *prefixServer) run() {
	defer close(s.done)
	var arena tensor.Arena
	pending := make([]featReq, 0, s.alive)
	for s.alive > 0 {
		select {
		case r := <-s.reqs:
			pending = append(pending, r)
		case <-s.leave:
			s.alive--
		}
		if len(pending) > 0 && len(pending) >= s.alive {
			s.flush(&arena, pending)
			pending = pending[:0]
		}
	}
}

// flush stacks the pending observations, runs one batched frozen-prefix
// pass and replies with a private copy of each row.
func (s *prefixServer) flush(arena *tensor.Arena, pending []featReq) {
	b := len(pending)
	sh := pending[0].obs.Shape()
	if len(sh) != 3 {
		panic("rl: prefix server expects CHW observations")
	}
	batch := arena.Get(0, b, sh[0], sh[1], sh[2])
	n := pending[0].obs.Len()
	for i, r := range pending {
		copy(batch.Data()[i*n:(i+1)*n], r.obs.Data())
	}
	var od []float32
	if s.batched != nil {
		od = s.batched.InferBatch(batch)
	} else {
		od = s.net.ForwardBatchRange(0, s.boundary, batch).Data()
	}
	f := len(od) / b
	for i, r := range pending {
		r.reply <- tensor.FromSlice(append([]float32(nil), od[i*f:(i+1)*f]...), f)
	}
}

// TrackerFor builds the flight tracker the online loop feeds, sized for
// runs of the given iteration count exactly like rl.NewTrainer sizes its
// tracker (smoothing windows scale with the run length).
func TrackerFor(iterations int) *metrics.FlightTracker {
	return metrics.NewFlightTracker(max(iterations/4, 10), 10, max(1, iterations/200))
}
