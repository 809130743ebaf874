// Package transfer implements the paper's context-aware transfer-learning
// pipeline (Section II.D):
//
//  1. Before deployment, the CNN is trained with end-to-end RL on a complex
//     meta-environment (indoor or outdoor).
//  2. The resulting meta-model is "downloaded" to the drone — here, captured
//     as an nn.Snapshot, which in the hardware maps onto the STT-MRAM stack
//     plus on-die SRAM.
//  3. After deployment the drone keeps learning online, but only the last
//     few FC layers (configs L2/L3/L4) are trained; everything below the
//     boundary stays frozen in non-volatile memory.
package transfer

import (
	"context"
	"fmt"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// MetaOptions is the paper's meta-training recipe for a run of iterations
// steps — batch 4, exploration annealed over half the budget — specialised
// by opts (see rl.Options.With).
func MetaOptions(seed int64, iterations int, opts ...rl.Option) (rl.Options, error) {
	return rl.Options{Seed: seed, BatchSize: 4, EpsDecaySteps: iterations / 2}.With(opts...)
}

// OnlineOptions is the paper's online-learning recipe for a run of
// iterations steps, specialised by opts: the transferred model already
// avoids obstacles and only fine-tunes, so exploration restarts from 0.5
// (annealed over half the budget) at learning rate 0.001, batch 4.
func OnlineOptions(seed int64, iterations int, opts ...rl.Option) (rl.Options, error) {
	return rl.Options{
		Seed: seed, BatchSize: 4, EpsStart: 0.5, EpsDecaySteps: iterations / 2, LR: 0.001,
	}.With(opts...)
}

// MetaTrain runs end-to-end RL on a meta-environment and returns the
// trained meta-model. The paper trains for 60k iterations from
// ImageNet-initialized weights; this reproduction trains from scratch for a
// configurable number of iterations (see DESIGN.md on scaling). It is the
// pre-deployment phase, so it builds its own one-world loop rather than
// calling BuildOnlineLoop: it always runs one actor, on the serial schedule.
func MetaTrain(meta *env.World, spec nn.ArchSpec, iterations int, opts rl.Options) (*nn.Snapshot, *metrics.FlightTracker) {
	agent := rl.NewAgent(spec, nn.E2E, opts)
	loop := &rl.OnlineLoop{Agent: agent, Worlds: []*env.World{meta}, Tracker: rl.TrackerFor(iterations)}
	// One world and no deadline: the serial schedule cannot fail.
	_, _ = loop.Run(context.TODO(), iterations)
	return nn.TakeSnapshot(agent.Net, spec.Name), loop.Tracker
}

// Deploy builds an online agent whose weights start from the transferred
// meta-model and whose trainable region follows cfg. For E2E the same
// transferred weights are used but every layer stays trainable — the
// baseline the paper compares against.
func Deploy(snapshot *nn.Snapshot, spec nn.ArchSpec, cfg nn.Config, opts rl.Options) (*rl.Agent, error) {
	if snapshot.Arch != "" && snapshot.Arch != spec.Name {
		return nil, fmt.Errorf("transfer: snapshot is a %q meta-model, cannot deploy onto %q",
			snapshot.Arch, spec.Name)
	}
	agent := rl.NewAgent(spec, cfg, opts)
	if err := snapshot.Restore(agent.Net); err != nil {
		return nil, fmt.Errorf("transfer: deploying meta-model: %w", err)
	}
	if agent.Target != nil {
		if err := snapshot.Restore(agent.Target); err != nil {
			return nil, fmt.Errorf("transfer: deploying meta-model into target: %w", err)
		}
	}
	// A trainable backend captures the weights at activation, so it must be
	// built after the transferred meta-model is in place: the quantized
	// engine compiles the restored weights, not the fresh initialization.
	if err := agent.ActivateTrainBackend(); err != nil {
		return nil, fmt.Errorf("transfer: activating train backend: %w", err)
	}
	return agent, nil
}

// Result captures one online-learning run in a test environment.
type Result struct {
	Env      string
	Config   nn.Config
	Training *metrics.FlightTracker
	Eval     *metrics.FlightTracker
	// Backend names the inference backend of the evaluation phase ("" for
	// the direct float path) and EvalCost its accumulated hardware cost.
	Backend  string
	EvalCost nn.BackendCost
	// TrainBackend names the trainable backend the online phase ran on (""
	// for the float training path) and TrainCost its accumulated hardware
	// cost — the STT-MRAM read/write energy and latency of every quantized
	// TD step, the source of EXPERIMENTS.md's train-energy-per-step table.
	TrainBackend string
	TrainCost    nn.BackendCost
	// Actors is the number of concurrent actors the online phase ran
	// (1 = the deterministic serial schedule).
	Actors int
	// Publishes counts the learner's policy-snapshot publishes and
	// PublishMJ their modeled memory-write energy: SRAM buffer traffic for
	// the frozen-layer topologies, STT-MRAM writes under E2E. Both are zero
	// for single-actor runs, which have no actor fleet to publish to.
	Publishes int
	PublishMJ float64
	// PublishLedger itemizes the publish traffic per device (nil when no
	// publish happened).
	PublishLedger *mem.EnergyLedger
}

// SFD returns the run's evaluated safe flight distance.
func (r Result) SFD() float64 {
	if r.Eval == nil {
		return 0
	}
	return r.Eval.SafeFlightDistance()
}

// BuildOnlineLoop assembles the actor/learner loop for one online-learning
// run: actor 0 flies the caller's world as-is (which is what keeps the
// single-actor path identical to the serial loop), extra actors fly clones
// with private spawn streams seeded from cloneSeed, and for multi-actor runs
// every policy publish charges its snapshot write — SRAM traffic for the
// frozen-layer topologies, STT-MRAM writes under E2E
// (hw.Model.SnapshotPublishTraffic) — to the returned compact ledger (nil
// for single-actor runs). It is the one constructor of an online phase's
// loop: RunOnline, the core flight, mission and ablation drivers, the
// swarm and curriculum drivers and the benchmarks all call it.
func BuildOnlineLoop(agent *rl.Agent, test *env.World, spec nn.ArchSpec, cfg nn.Config,
	onlineIters int, cloneSeed int64) (*rl.OnlineLoop, *mem.EnergyLedger) {

	actors := agent.Actors()
	worlds := make([]*env.World, actors)
	worlds[0] = test
	for i := 1; i < actors; i++ {
		w := test.Clone()
		w.Seed(cloneSeed + 97*int64(i))
		w.Spawn()
		worlds[i] = w
	}
	loop := &rl.OnlineLoop{
		Agent:   agent,
		Worlds:  worlds,
		Tracker: rl.TrackerFor(onlineIters),
	}
	var ledger *mem.EnergyLedger
	if actors > 1 {
		traffic := hw.NewModelFor(spec).SnapshotPublishTraffic(cfg)
		ledger = mem.NewCompactLedger()
		loop.OnPublish = func(uint64) {
			for _, t := range traffic {
				ledger.Record(t.Device, t.Kind, t.Bits)
			}
		}
	}
	return loop, ledger
}

// RunOnline deploys the snapshot into a test world under cfg, trains online
// for onlineIters through the actor/learner pipeline and then evaluates
// greedily for evalSteps. The actor count comes from the options
// (rl.WithActors): 1 — the default — runs the deterministic serial schedule
// (one act→store→train interleaving on one goroutine, pinned by
// TestRunOnlineActorsOneGolden); more actors run concurrently on cloned
// worlds, with the learner publishing policy snapshots whose memory-write
// energy is charged per publish (hw.Model.SnapshotPublishTraffic). When
// the options select an evaluation backend it is activated at the training /
// evaluation hand-off — after the final policy state is in place — so the
// greedy flight runs on the deployment substrate while training stays on the
// float reference. Cancelling ctx stops the actors and the learner within
// one environment step and reports ctx.Err().
func RunOnline(ctx context.Context, snapshot *nn.Snapshot, test *env.World,
	spec nn.ArchSpec, cfg nn.Config, onlineIters, evalSteps int, opts rl.Options) (Result, error) {

	agent, err := Deploy(snapshot, spec, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	loop, ledger := BuildOnlineLoop(agent, test, spec, cfg, onlineIters, opts.Seed+7700)
	res := Result{Env: test.Name, Config: cfg, Actors: agent.Actors(), PublishLedger: ledger}
	stats, err := loop.Run(ctx, onlineIters)
	if err != nil {
		return Result{}, err
	}
	res.Training = loop.Tracker
	res.Publishes = stats.Publishes
	if res.PublishLedger != nil {
		res.PublishMJ = res.PublishLedger.TotalEnergyPJ() / 1e9
	}
	// The training/evaluation hand-off. Capture the training backend's
	// tallies first: the online phase is over, so the cost recorded now is
	// exactly the training cost.
	if tb := agent.TrainBackend(); tb != nil {
		res.TrainBackend = tb.Name()
		res.TrainCost = agent.TrainCost()
	}
	if err := agent.ActivateEvalBackend(); err != nil {
		return Result{}, err
	}
	res.Eval = rl.Evaluate(test, agent, evalSteps)
	if b := agent.EvalBackend(); b != nil {
		res.Backend = b.Name()
		res.EvalCost = agent.EvalCost()
	}
	return res, nil
}
