package core

import (
	"context"
	"fmt"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// Mission co-simulates the two halves of the paper: every camera frame the
// drone flies in the simulated world *and* pays the hardware model's
// latency and energy for inference, training and weight updates. The
// output is the mission-level quantity a drone designer cares about — how
// far the vehicle gets on a compute-energy budget — which is where the
// STT-MRAM write asymmetry finally lands.

// MissionConfig parameterizes a co-design mission.
type MissionConfig struct {
	// Config is the training topology flown.
	Config nn.Config
	// Batch is the training batch size (paper sweeps 4/8/16).
	Batch int
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
	// Backend names the inference backend the mission's greedy decisions
	// ran on ("" for the direct float path). Only inference-only missions
	// deploy onto a backend; online missions train the float network.
	Backend string
	// BackendCost is the backend's own accumulated cost ledger summary
	// (independent of the budget accounting above, which always uses the
	// analytical per-frame model).
	BackendCost nn.BackendCost
}

// String renders a one-line mission summary.
func (r MissionResult) String() string {
	return fmt.Sprintf("%v: %d frames, %.0f m, %d crashes, %.1f J, %.0f s at %.1f fps",
		r.Config, r.Frames, r.DistanceM, r.Crashes, r.EnergySpentJ, r.WallClockS, r.FPS)
}

// RunMission flies the agent in the world until the compute budget or the
// frame bound is exhausted, charging each frame's hardware cost from the
// performance model.
func RunMission(w *env.World, agent *rl.Agent, model *hw.Model, cfg MissionConfig) MissionResult {
	if cfg.Batch <= 0 {
		cfg.Batch = 4
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 100000
	}
	perFrameJ := model.EnergyPerFrameMJ(cfg.Config) / 1000
	if !cfg.Online {
		// Inference only: one forward pass plus the camera link.
		perFrameJ = model.ForwardEnergyMJ() / 1000
	}
	fps := model.Iteration(cfg.Config, cfg.Batch).FPS()

	res := MissionResult{Config: cfg.Config, FPS: fps}
	// The budget fixes the frame count before the first frame flies.
	for res.Frames < cfg.MaxFrames && res.EnergySpentJ+perFrameJ <= cfg.ComputeBudgetJ {
		res.Frames++
		res.DistanceM += w.DFrame
		res.EnergySpentJ += perFrameJ
	}
	if cfg.Online {
		// Learning on the mission is the serial online loop, one TD step
		// every Batch frames. One world and no deadline: it cannot fail.
		loop := &rl.OnlineLoop{
			Agent: agent, Worlds: []*env.World{w},
			Tracker: rl.TrackerFor(res.Frames), TrainEvery: cfg.Batch,
		}
		_, _ = loop.Run(context.TODO(), res.Frames)
		res.Crashes = loop.Tracker.Crashes()
	} else {
		res.Crashes = rl.Evaluate(w, agent, res.Frames).Crashes()
	}
	res.WallClockS = float64(res.Frames) / fps
	return res
}

// MissionExperiment flies the same mission under every topology with fresh
// agents deployed from one snapshot — the co-design payoff expressed in
// mission terms. It implements Experiment; results are in nn.Configs order.
type MissionExperiment struct {
	seed    int64
	budgetJ float64
	online  bool
	batch   int
	// overrides layers explicitly-set agent options over the mission's
	// training templates (see rl.Options.Merge).
	overrides rl.Options

	snap    *nn.Snapshot
	results []MissionResult
}

// NewMissionExperiment plans a topology-comparison mission on the indoor
// apartment under a fixed compute-energy budget.
func NewMissionExperiment(seed int64, budgetJ float64, online bool) *MissionExperiment {
	return &MissionExperiment{seed: seed, budgetJ: budgetJ, online: online, batch: 4}
}

// SetAgentOverrides layers explicitly-set agent options (gamma, learning
// rate, batch size, ...) over the mission's meta-training and deployment
// templates; unset fields keep the historical values. An explicit batch
// size also drives the per-frame training cadence and the hardware model's
// batch pricing.
func (e *MissionExperiment) SetAgentOverrides(o rl.Options) {
	e.overrides = o
	e.batch = rl.Options{BatchSize: e.batch}.Merge(o).BatchSize
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
				meta := env.IndoorMeta(e.seed + 100)
				e.snap, _ = metaTrainQuick(meta, spec, e.seed, e.overrides)
				rc.Emit(Event{Env: meta.Name, Config: nn.E2E, Run: 0, Iteration: 800})
				return nil
			},
		},
		{
			Name: "missions",
			Jobs: len(nn.Configs),
			Job: func(rc *RunContext, i int) error {
				cfg := nn.Configs[i]
				w := env.IndoorApartment(e.seed + 1)
				agent, err := deploySnapshot(e.snap, spec, cfg, e.seed, e.overrides)
				if err != nil {
					return err
				}
				// Inference-only missions are deployments: the policy runs
				// on the selected backend. Online missions keep training
				// the float network, so they stay on the float path.
				if !e.online {
					if err := agent.ActivateEvalBackend(); err != nil {
						return fmt.Errorf("core: mission under %v: %w", cfg, err)
					}
				}
				e.results[i] = RunMission(w, agent, hw.NewModel(), MissionConfig{
					Config: cfg, Batch: e.batch, ComputeBudgetJ: e.budgetJ, Online: e.online,
				})
				if b := agent.EvalBackend(); b != nil {
					e.results[i].Backend = b.Name()
					e.results[i].BackendCost = agent.EvalCost()
				}
				rc.Emit(Event{
					Env: w.Name, Config: cfg, Run: i,
					Iteration: e.results[i].Frames, Reward: e.results[i].DistanceM,
					Backend:   e.results[i].Backend,
					EnergyMJ:  e.results[i].BackendCost.EnergyMJ,
					LatencyMS: e.results[i].BackendCost.LatencyMS,
					Cycles:    e.results[i].BackendCost.Cycles,
				})
				return nil
			},
		},
	}
}
