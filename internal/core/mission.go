package core

import (
	"context"
	"fmt"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// Mission co-simulates the two halves of the paper: every camera frame the
// drone flies in the simulated world *and* pays the hardware model's
// latency and energy for inference, training and weight updates. The
// output is the mission-level quantity a drone designer cares about — how
// far the vehicle gets on a compute-energy budget — which is where the
// STT-MRAM write asymmetry finally lands.

// MissionConfig parameterizes a co-design mission. The topology flown and
// the training batch are the agent's (Agent.Config, Agent.BatchSize).
type MissionConfig struct {
	// ComputeBudgetJ is the battery energy allocated to the embedded
	// computer, in joules.
	ComputeBudgetJ float64
	// MaxFrames bounds the simulation.
	MaxFrames int
	// Online enables learning during the mission (otherwise the drone
	// only infers, paying only the inference costs).
	Online bool
}

// MissionResult is the outcome of a co-design mission.
type MissionResult struct {
	Config nn.Config
	// Frames processed before the budget ran out (or MaxFrames).
	Frames int
	// DistanceM is the total distance flown.
	DistanceM float64
	// Crashes during the mission.
	Crashes int
	// EnergySpentJ is the compute energy consumed.
	EnergySpentJ float64
	// WallClockS is the mission duration implied by the sustainable
	// frame rate of the topology.
	WallClockS float64
	// FPS is the hardware-sustainable frame rate used.
	FPS float64
	// Substrate is what the mission flew and trained on and the backends'
	// own cost tallies, independent of the budget accounting above, which
	// always uses the analytical per-frame model. Only an inference-only
	// mission hands off, so only it names a Backend; an online mission
	// acts on the network it trains (the float one, or the TrainBackend's
	// words) and charges it to TrainCost.
	rl.Substrate
}

// String renders a one-line mission summary.
func (r MissionResult) String() string {
	return fmt.Sprintf("%v: %d frames, %.0f m, %d crashes, %.1f J, %.0f s at %.1f fps",
		r.Config, r.Frames, r.DistanceM, r.Crashes, r.EnergySpentJ, r.WallClockS, r.FPS)
}

// RunMission flies the agent in the world until the compute budget or the
// frame bound is exhausted, charging each frame's hardware cost from the
// performance model at the agent's topology and batch size. An online
// mission learns through transfer.BuildOnlineLoop, one TD step every batch
// of frames; the budget's frame count is split across the agent's actors.
// An inference-only mission is a deployment: the agent hands off first
// (rl.Agent.HandOff), so it flies the eval backend the options name.
// TestRunMissionGolden pins it bit for bit.
func RunMission(w *env.World, agent *rl.Agent, model *hw.Model, cfg MissionConfig) (MissionResult, error) {
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 100000
	}
	topo, batch := agent.Config(), agent.BatchSize()
	perFrameJ := model.EnergyPerFrameMJ(topo) / 1000
	if !cfg.Online {
		// Inference only: one forward pass plus the camera link.
		perFrameJ = model.ForwardEnergyMJ() / 1000
	}
	fps := model.Iteration(topo, batch).FPS()

	res := MissionResult{Config: topo, FPS: fps}
	// The budget fixes the frame count before the first frame flies.
	for res.Frames < cfg.MaxFrames && res.EnergySpentJ+perFrameJ <= cfg.ComputeBudgetJ {
		res.Frames++
		res.DistanceM += w.DFrame
		res.EnergySpentJ += perFrameJ
	}
	if cfg.Online {
		loop, _ := transfer.BuildOnlineLoop(agent, w, agent.Spec(), topo, res.Frames, agent.Options().Seed+7700)
		loop.TrainEvery = batch
		// No deadline: the loop cannot fail.
		_, _ = loop.Run(context.TODO(), res.Frames)
		res.Crashes = loop.Tracker.Crashes()
	} else {
		if err := agent.HandOff(); err != nil {
			return MissionResult{}, err
		}
		res.Crashes = rl.Evaluate(w, agent, res.Frames).Crashes()
	}
	res.WallClockS = float64(res.Frames) / fps
	res.Substrate = agent.Substrate()
	return res, nil
}

// deploySnapshot installs a snapshot under the given topology for a
// mission, specialised by opts.
func deploySnapshot(snap *nn.Snapshot, spec nn.ArchSpec, cfg nn.Config, seed int64, opts ...rl.Option) (*rl.Agent, error) {
	// Not the online recipe: a mission's length is set by its energy
	// budget, not an iteration budget, so it keeps a fixed schedule of its
	// own (exploration from 0.3 over 500 frames).
	o, err := rl.Options{
		Seed: seed + 2 + int64(cfg), BatchSize: 4,
		EpsStart: 0.3, EpsDecaySteps: 500, LR: 0.001,
	}.With(opts...)
	if err != nil {
		return nil, err
	}
	return transfer.Deploy(snap, spec, cfg, o)
}

// MissionExperiment flies the same mission under every topology with fresh
// agents deployed from one snapshot — the co-design payoff expressed in
// mission terms. It implements Experiment; results are in nn.Configs order.
type MissionExperiment struct {
	seed    int64
	budgetJ float64
	online  bool
	// agentOpts specialise the mission's training templates.
	agentOpts []rl.Option

	snap    *nn.Snapshot
	results []MissionResult
}

// NewMissionExperiment plans a topology-comparison mission on the indoor
// apartment under a fixed compute-energy budget.
func NewMissionExperiment(seed int64, budgetJ float64, online bool) *MissionExperiment {
	return &MissionExperiment{seed: seed, budgetJ: budgetJ, online: online}
}

// SetAgentOverrides installs agent options (gamma, learning rate, batch
// size, ...) applied over the mission's meta-training and deployment
// templates; an invalid combination fails the run. The deployed agent's
// batch size also drives the per-frame training cadence and the hardware
// model's batch pricing. It refuses the options a mission does not read:
// WithActors(n > 1) always, WithBackend on an online mission and
// WithTrainBackend on an inference-only one (see CheckOverrides).
func (e *MissionExperiment) SetAgentOverrides(opts ...rl.Option) error {
	unread := Unread{Actors: "the energy budget fixes the frame count, and one drone flies it"}
	if e.online {
		unread.EvalBackend = "an online mission acts on the network it trains"
	} else {
		unread.TrainBackend = "an inference-only mission never trains"
	}
	if err := CheckOverrides("core: mission", opts, unread); err != nil {
		return err
	}
	e.agentOpts = opts
	return nil
}

// Name implements Experiment.
func (e *MissionExperiment) Name() string { return "mission" }

// Results returns the per-topology missions in nn.Configs order; valid
// once a Run has completed.
func (e *MissionExperiment) Results() []MissionResult { return e.results }

// Phases implements Experiment: one shared meta-training, then one
// independent mission per topology (seeds derive from the topology, so the
// missions parallelize bit-identically to the historical serial loop).
func (e *MissionExperiment) Phases() []Phase {
	spec := nn.NavNetSpec()
	e.results = make([]MissionResult, len(nn.Configs))

	return []Phase{
		{
			Name: "meta-train",
			Jobs: 1,
			Job: func(rc *RunContext, _ int) error {
				// A compact meta-model: missions need a reasonable, not a
				// figure-grade, transferred policy.
				const iters = 800
				opts, err := transfer.MetaOptions(e.seed, iters, e.agentOpts...)
				if err != nil {
					return err
				}
				meta := env.IndoorMeta(e.seed + 100)
				e.snap, _ = transfer.MetaTrain(meta, spec, iters, opts)
				rc.Emit(Event{Env: meta.Name, Config: nn.E2E, Run: 0, Iteration: iters})
				return nil
			},
		},
		{
			Name: "missions",
			Jobs: len(nn.Configs),
			Job: func(rc *RunContext, i int) error {
				cfg := nn.Configs[i]
				w := env.IndoorApartment(e.seed + 1)
				agent, err := deploySnapshot(e.snap, spec, cfg, e.seed, e.agentOpts...)
				if err != nil {
					return err
				}
				res, err := RunMission(w, agent, hw.NewModel(), MissionConfig{
					ComputeBudgetJ: e.budgetJ, Online: e.online,
				})
				if err != nil {
					return fmt.Errorf("core: mission under %v: %w", cfg, err)
				}
				e.results[i] = res
				rc.Emit(Event{
					Env: w.Name, Config: cfg, Run: i,
					Iteration: res.Frames, Reward: res.DistanceM,
					Backend:   res.Backend,
					EnergyMJ:  res.EvalCost.EnergyMJ,
					LatencyMS: res.EvalCost.LatencyMS,
					Cycles:    res.EvalCost.Cycles,
				})
				return nil
			},
		},
	}
}
