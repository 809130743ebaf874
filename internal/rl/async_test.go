package rl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"

	// Linked for its backend registration: the policy-swap test flies on
	// the compiled 16-bit backend, where a missed rebuild is observable.
	_ "dronerl/internal/hw"
)

// asyncTestOpts returns a small but realistic option set for pipeline tests.
func asyncTestOpts(seed int64, actors int) Options {
	return Options{
		Seed: seed, BatchSize: 4, EpsDecaySteps: 100,
		ReplayCapacity: 512, Actors: actors, SyncEvery: 4,
	}
}

func seriesEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: series lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: diverges at sample %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// serialTrainer is the plain act→store→train loop written against the
// agent's public API: SelectAction, Observe into its private replay,
// TrainStep every fourth step.
func serialTrainer(w *env.World, a *Agent, iters int) *metrics.FlightTracker {
	tracker := TrackerFor(iters)
	obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
	for i := 0; i < iters; i++ {
		action := a.SelectAction(obs)
		res := w.Step(env.Action(action))
		next := env.DepthImage(res.Depths, w.Camera.MaxRange)
		a.Observe(Transition{State: obs, Action: action, Reward: res.Reward, Next: next, Done: res.Crashed})
		tracker.Step(res.Reward, res.Crashed, res.FlightDistance)
		if i%4 == 0 {
			a.TrainStep()
		}
		obs = next
	}
	return tracker
}

// TestOnlineLoopExactMatchesTrainer is the determinism pin of the one-actor
// schedule: the online loop over one world with a fixed seed must reproduce
// the plain serial loop (serialTrainer) bit for bit — same tracker series,
// same crashes, same weights after training — for a frozen topology (which
// takes the cached-feature path) and for E2E (which takes the full path).
func TestOnlineLoopExactMatchesTrainer(t *testing.T) {
	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		t.Run(cfg.String(), func(t *testing.T) {
			const iters = 240
			spec := nn.NavNetSpec()

			serialAgent := NewAgent(spec, cfg, asyncTestOpts(11, 1))
			serialWorld := env.IndoorApartment(7)
			serialWorld.Seed(21)
			serialWorld.Spawn()
			serialTracker := serialTrainer(serialWorld, serialAgent, iters)

			loopAgent := NewAgent(spec, cfg, asyncTestOpts(11, 1))
			loopWorld := env.IndoorApartment(7)
			loopWorld.Seed(21)
			loopWorld.Spawn()
			loop := &OnlineLoop{
				Agent:   loopAgent,
				Worlds:  []*env.World{loopWorld},
				Tracker: TrackerFor(iters),
			}
			stats, err := loop.Run(context.Background(), iters)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Actors != 1 || stats.EnvSteps != iters {
				t.Errorf("stats = %+v, want 1 actor and %d env steps", stats, iters)
			}
			if stats.Publishes != 0 || stats.Adoptions != 0 {
				t.Errorf("deterministic mode published %d / adopted %d, want 0/0", stats.Publishes, stats.Adoptions)
			}

			seriesEqual(t, "reward", serialTracker.RewardSeries(), loop.Tracker.RewardSeries())
			seriesEqual(t, "return", serialTracker.ReturnSeries(), loop.Tracker.ReturnSeries())
			if serialTracker.Crashes() != loop.Tracker.Crashes() {
				t.Errorf("crashes: serial %d, loop %d", serialTracker.Crashes(), loop.Tracker.Crashes())
			}
			if serialAgent.TrainSteps() != loopAgent.TrainSteps() {
				t.Errorf("train steps: serial %d, loop %d", serialAgent.TrainSteps(), loopAgent.TrainSteps())
			}
			paramsEqual(t, cfg.String(), serialAgent.Net, loopAgent.Net)
			if serialAgent.Target != nil {
				paramsEqual(t, cfg.String()+" (target)", serialAgent.Target, loopAgent.Target)
			}
		})
	}
}

// TestOnlineLoopAsyncRuns exercises the concurrent pipeline at 4 and 8
// actors under a frozen topology (each actor's own prefix pass + cached
// features) and E2E (full private forwards): the full step budget executes, the learner drains
// every due train step, snapshots are published and adopted, and the agent
// still learns on a real workload. Run with -race this is the pipeline's
// concurrency test.
func TestOnlineLoopAsyncRuns(t *testing.T) {
	for _, tc := range []struct {
		cfg    nn.Config
		actors int
	}{{nn.L3, 4}, {nn.L3, 8}, {nn.E2E, 4}} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			const iters = 320
			spec := nn.NavNetSpec()
			agent := NewAgent(spec, tc.cfg, asyncTestOpts(13, tc.actors))
			worlds := make([]*env.World, tc.actors)
			base := env.IndoorApartment(9)
			for i := range worlds {
				w := base.Clone()
				w.Seed(31 + int64(i))
				w.Spawn()
				worlds[i] = w
			}
			var publishes int
			loop := &OnlineLoop{
				Agent:     agent,
				Worlds:    worlds,
				Tracker:   TrackerFor(iters),
				OnPublish: func(uint64) { publishes++ },
			}
			stats, err := loop.Run(context.Background(), iters)
			if err != nil {
				t.Fatal(err)
			}
			if stats.EnvSteps != iters {
				t.Errorf("env steps = %d, want %d", stats.EnvSteps, iters)
			}
			if loop.Tracker.Steps() != iters {
				t.Errorf("tracker saw %d steps, want %d", loop.Tracker.Steps(), iters)
			}
			// Every due train step is attempted; the first few may no-op
			// while the shards fill to one batch.
			wantTrains := iters / loop.TrainEvery
			if stats.TrainSteps < wantTrains-8 || stats.TrainSteps > wantTrains {
				t.Errorf("train steps = %d, want close to %d", stats.TrainSteps, wantTrains)
			}
			if stats.Publishes == 0 {
				t.Error("async run published no policy snapshots")
			}
			if publishes != stats.Publishes {
				t.Errorf("OnPublish saw %d publishes, stats say %d", publishes, stats.Publishes)
			}
		})
	}
}

// TestOnlineLoopCancellation: cancelling the context stops actors and
// learner promptly and reports ctx.Err; a restarted loop on fresh
// state completes normally (no poisoned shared state).
func TestOnlineLoopCancellation(t *testing.T) {
	const iters = 100000 // far more than the cancelled run will take
	spec := nn.NavNetSpec()
	agent := NewAgent(spec, nn.L3, asyncTestOpts(17, 4))
	worlds := make([]*env.World, 4)
	base := env.IndoorApartment(11)
	for i := range worlds {
		w := base.Clone()
		w.Seed(41 + int64(i))
		w.Spawn()
		worlds[i] = w
	}
	loop := &OnlineLoop{Agent: agent, Worlds: worlds, Tracker: TrackerFor(iters)}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var stats OnlineStats
	var err error
	go func() {
		defer wg.Done()
		stats, err = loop.Run(ctx, iters)
	}()
	// Let it make some progress, then pull the plug.
	for agent.Clock().EnvSteps() < 50 {
		runtime.Gosched()
	}
	cancel()
	wg.Wait()
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if stats.EnvSteps >= iters {
		t.Errorf("cancelled run executed the full budget (%d steps)", stats.EnvSteps)
	}
}

// TestReplayShardsSingleMatchesBuffer pins the stream contract that makes
// the deterministic mode exact: a single shard consumes rng and returns
// draws exactly like the unsharded ReplayBuffer.
func TestReplayShardsSingleMatchesBuffer(t *testing.T) {
	buf := NewReplayBuffer(32)
	sh := NewReplayShards(1, 32)
	for i := 0; i < 20; i++ {
		tr := Transition{Action: i}
		buf.Push(tr)
		sh.PushTo(0, tr)
	}
	a := buf.SampleInto(nil, 12, rand.New(rand.NewSource(5)))
	b := sh.SampleInto(nil, 12, rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i].Action != b[i].Action {
			t.Fatalf("draw %d: buffer %d, shards %d", i, a[i].Action, b[i].Action)
		}
	}
}

// TestReplayShardsInterleave: the multi-shard draw walks shards round-robin
// deterministically, skipping empty shards, with uniform in-shard indices
// from the rng.
func TestReplayShardsInterleave(t *testing.T) {
	sh := NewReplayShards(4, 64)
	// Shard 2 stays empty.
	for i := 0; i < 6; i++ {
		sh.PushTo(0, Transition{Action: 100 + i})
		sh.PushTo(1, Transition{Action: 200 + i})
		sh.PushTo(3, Transition{Action: 300 + i})
	}
	got := sh.SampleInto(nil, 9, rand.New(rand.NewSource(3)))
	if len(got) != 9 {
		t.Fatalf("drew %d transitions, want 9", len(got))
	}
	// Deterministic interleave: shards 0,1,3,0,1,3,... by hundreds digit.
	wantShard := []int{100, 200, 300, 100, 200, 300, 100, 200, 300}
	for i, tr := range got {
		if tr.Action/100*100 != wantShard[i] {
			t.Errorf("draw %d came from shard bucket %d, want %d", i, tr.Action/100*100, wantShard[i])
		}
	}
	// Same seed, fresh cursor → same draws.
	sh2 := NewReplayShards(4, 64)
	for i := 0; i < 6; i++ {
		sh2.PushTo(0, Transition{Action: 100 + i})
		sh2.PushTo(1, Transition{Action: 200 + i})
		sh2.PushTo(3, Transition{Action: 300 + i})
	}
	got2 := sh2.SampleInto(nil, 9, rand.New(rand.NewSource(3)))
	for i := range got {
		if got[i].Action != got2[i].Action {
			t.Errorf("draw %d not reproducible: %d vs %d", i, got[i].Action, got2[i].Action)
		}
	}
}

// TestClockSchedules: epsilon and target-sync are pure functions of the
// shared clock, and WaitEnv wakes at the requested tick.
func TestClockSchedules(t *testing.T) {
	c := NewClock()
	if c.EnvSteps() != 0 || c.TrainSteps() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	done := make(chan struct{})
	go func() {
		c.WaitEnv(3, func() bool { return false })
		close(done)
	}()
	c.TickEnv()
	c.TickEnv()
	select {
	case <-done:
		t.Fatal("WaitEnv(3) woke after 2 ticks")
	default:
	}
	if c.TickEnv() != 3 {
		t.Fatal("TickEnv count wrong")
	}
	<-done

	o := Options{EpsStart: 1, EpsEnd: 0, EpsDecaySteps: 10}
	if got := o.EpsilonAt(0); got != 1 {
		t.Errorf("EpsilonAt(0) = %v", got)
	}
	if got := o.EpsilonAt(5); got != 0.5 {
		t.Errorf("EpsilonAt(5) = %v", got)
	}
	if got := o.EpsilonAt(15); got != 0 {
		t.Errorf("EpsilonAt(15) = %v", got)
	}
}

// TestAdoptPolicyRebuildsEvalBackend covers the deployment-side policy
// refresh: an agent flying on a compiled evaluation backend adopts a newer
// published policy and the backend is rebuilt over the fresh weights (the
// "backend hand-off on swap"). The quant backend compiles weights at
// activation, so without the rebuild a swap would keep serving Q-values of
// the stale policy.
func TestAdoptPolicyRebuildsEvalBackend(t *testing.T) {
	spec := nn.NavNetSpec()
	opts := asyncTestOpts(71, 1)
	opts.EvalBackend = "quant"

	learner := NewAgent(spec, nn.L3, Options{Seed: 72, BatchSize: 2, ReplayCapacity: 64})
	flyer := NewAgent(spec, nn.L3, opts)
	if err := flyer.Net.CopyWeightsFrom(learner.Net); err != nil {
		t.Fatal(err)
	}
	if err := flyer.HandOff(); err != nil {
		t.Fatal(err)
	}

	board := nn.NewPolicyBoard()
	board.Publish(learner.Net, spec.Name)
	// Version 1 equals the flyer's weights; adopting it still counts as a
	// swap (the flyer has never adopted), rebuilding the backend.
	if changed, err := flyer.AdoptPolicy(board); err != nil || !changed {
		t.Fatalf("first adoption = (%v, %v)", changed, err)
	}

	// Train the learner a little so the published policy really differs,
	// then publish and adopt again.
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	obs.RandN(rand.New(rand.NewSource(73)), 1)
	for i := 0; i < 16; i++ {
		learner.Observe(Transition{State: obs, Action: i % 5, Reward: float64(i % 3), Next: obs})
	}
	for i := 0; i < 8; i++ {
		learner.TrainStep()
	}
	board.Publish(learner.Net, spec.Name)
	if changed, err := flyer.AdoptPolicy(board); err != nil || !changed {
		t.Fatalf("second adoption = (%v, %v)", changed, err)
	}
	if changed, err := flyer.AdoptPolicy(board); err != nil || changed {
		t.Fatalf("re-adopting the same version = (%v, %v), want no-op", changed, err)
	}

	// The rebuilt backend must agree with a backend compiled directly over
	// the learner's current weights, on observations where the stale policy
	// disagrees with the fresh one somewhere in the Q-vector.
	ref, err := nn.NewBackendFor("quant", learner.Net, spec, nn.L3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(74))
	for i := 0; i < 8; i++ {
		o := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		o.RandN(rng, 1)
		got := append([]float32(nil), flyer.Policy().Infer(o)...)
		want := ref.Infer(o)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("obs %d: adopted backend Q[%d]=%v, fresh compile says %v — backend not rebuilt over the swapped policy",
					i, j, got[j], want[j])
			}
		}
	}
}

// TestOnlineLoopReplayOutlivesRun: a loop run again samples what it already
// collected, unless the agent's training boundary changed in between, which
// voids the cached features and so starts an empty replay.
func TestOnlineLoopReplayOutlivesRun(t *testing.T) {
	a := NewAgent(nn.NavNetSpec(), nn.E2E, Options{Seed: 23, BatchSize: 4})
	loop := &OnlineLoop{Agent: a, Worlds: []*env.World{env.IndoorApartment(23)}}
	// Eight steps train at steps 0 and 4: on a fresh replay only the second
	// finds a batch, on a carried-over one both do.
	for i, tc := range []struct {
		cfg  nn.Config
		want int
	}{{nn.E2E, 1}, {nn.E2E, 2}, {nn.L3, 1}, {nn.L3, 2}} {
		a.SetConfig(tc.cfg)
		stats, err := loop.Run(context.Background(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TrainSteps != tc.want {
			t.Errorf("run %d under %v: %d train steps, want %d", i, tc.cfg, stats.TrainSteps, tc.want)
		}
	}
}

// TestOnlineLoopRefusesNonFinitePolicy: once the learner's weights go
// non-finite (here a NaN written into its last trainable parameter), the
// policies it publishes cannot be installed, and a fleet run ends with that
// error instead of flying them.
func TestOnlineLoopRefusesNonFinitePolicy(t *testing.T) {
	const actors = 4
	agent := NewAgent(nn.NavNetSpec(), nn.L3, asyncTestOpts(19, actors))
	worlds := make([]*env.World, actors)
	base := env.IndoorApartment(19)
	for i := range worlds {
		w := base.Clone()
		w.Seed(51 + int64(i))
		w.Spawn()
		worlds[i] = w
	}
	loop := &OnlineLoop{Agent: agent, Worlds: worlds, OnPublish: func(v uint64) {
		if v == 2 { // the learner goroutine owns agent.Net here
			ps := agent.Net.TrainableParams()
			p := ps[len(ps)-1]
			p.W.Data()[p.W.Len()-1] = float32(math.NaN())
			p.MarkChanged()
		}
	}}
	stats, err := loop.Run(context.Background(), 20000)
	if !errors.Is(err, nn.ErrSnapshotNonFinite) {
		t.Fatalf("fleet run returned %v, want nn.ErrSnapshotNonFinite", err)
	}
	if stats.EnvSteps >= 20000 {
		t.Errorf("the run flew its whole budget (%d steps) after the refusal", stats.EnvSteps)
	}
}
