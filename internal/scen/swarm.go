package scen

import (
	"fmt"
	"strings"
	"sync"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

// DroneStats is one swarm member's mission outcome.
type DroneStats struct {
	// Drone is the member's index; merged reports keep index order.
	Drone int
	// Steps is the number of actions flown.
	Steps int
	// Crashes counts collisions (each followed by a respawn).
	Crashes int
	// MeanReward is the mission's mean per-step reward.
	MeanReward float64
	// Distance is the total distance flown in metres, crashes included.
	Distance float64
	// SFD is the smoothed safe flight distance, Distance / (Crashes + 1).
	SFD float64
}

// FlySwarm flies n independent clones of base greedily for steps actions
// each, all sharing the one policy backend (nn.NewFloatBackend(net) for a
// float net). Drone i's world is a Clone of base (the immutable scene is
// shared, the flight state private) seeded from seed and its index, so
// results depend only on (policy, base layout, n, steps, seed) — never on
// scheduling.
//
// The fleet flies in lockstep: every tick stacks the n observations into one
// batch and runs the backend's batched entry across the whole swarm (the
// actor-fleet batching of the async pipeline, applied to a shared frozen
// policy), then steps the n worlds concurrently. For "quant" that is one
// int16 GEMM per layer per tick, charging one MRAM weight stream per layer
// per tick instead of one per drone. By the layers' row contract each drone
// flies exactly as it would alone (pinned by a golden hash, under -race).
func FlySwarm(backend nn.Backend, base *env.World, n, steps int, seed int64) []DroneStats {
	if n < 1 {
		panic("scen: swarm needs at least one drone")
	}
	worlds := make([]*env.World, n)
	obs := make([]*tensor.Tensor, n)
	for i := range worlds {
		w := base.Clone()
		w.Seed(seed + 97*int64(i))
		w.Spawn()
		worlds[i] = w
		obs[i] = env.DepthImage(w.Depths(), w.Camera.MaxRange)
	}
	stats := make([]DroneStats, n)
	rewardSum := make([]float64, n)
	for i := range stats {
		stats[i].Drone = i
	}

	row := obs[0].Len()
	// One stack tensor for the whole mission: inference never retains the
	// input, so the fleet's tick loop runs allocation-free on the GEMM side.
	batch := tensor.New(n, 1, env.ImageSize, env.ImageSize)
	for s := 0; s < steps; s++ {
		// One batched GEMM per layer across the swarm...
		bd := batch.Data()
		for i := range worlds {
			copy(bd[i*row:(i+1)*row], obs[i].Data())
		}
		q := backend.InferBatch(batch)
		actions := len(q) / n
		// ...then every drone steps its own world concurrently; each
		// goroutine touches only its own index's state.
		var wg sync.WaitGroup
		for i := range worlds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a := tensor.ArgMaxRow(q[i*actions : (i+1)*actions])
				res := worlds[i].Step(env.Action(a))
				rewardSum[i] += res.Reward
				if res.Crashed {
					stats[i].Crashes++
					stats[i].Distance += res.FlightDistance
				}
				obs[i] = env.DepthImage(res.Depths, worlds[i].Camera.MaxRange)
			}(i)
		}
		wg.Wait()
	}

	for i, w := range worlds {
		stats[i].Steps = steps
		stats[i].Distance += w.FlightDistance()
		if steps > 0 {
			stats[i].MeanReward = rewardSum[i] / float64(steps)
		}
		stats[i].SFD = stats[i].Distance / float64(stats[i].Crashes+1)
	}
	return stats
}

// SwarmReport merges per-drone mission stats in index order.
type SwarmReport struct {
	Env    string
	Config nn.Config
	// Substrate names the backend the mission flew on — the agent's Greedy
	// backend after the hand-off, "" for the float network — and the online
	// phase's train backend, with what each charged: with the batched quant
	// fleet, EvalCost reflects one MRAM weight stream per layer per tick,
	// amortized across all drones.
	rl.Substrate
	// Drones holds each member's stats, index order.
	Drones []DroneStats
	// Aggregates over the fleet.
	TotalSteps    int
	TotalCrashes  int
	TotalDistance float64
	MeanReward    float64
	MeanSFD       float64
	// Training is the shared policy's online-learning tracker.
	Training *metrics.FlightTracker
}

// SwarmExperiment is the multi-drone mission driver: meta-train for the
// scenario's kind, deploy and adapt the policy online in the scenario world
// (the deterministic single-actor schedule unless rl.WithActors asks for
// more), then fly Drones clones of that
// world in lockstep sharing the adapted policy on the backend the agent's
// Greedy flies after the hand-off (rl.WithEvalBackend, else the train
// backend's words, else the float network) — one batched pass per layer
// across the fleet — and merge per-drone metrics in index order. It implements core.Experiment.
type SwarmExperiment struct {
	// Scenario names the catalog world the swarm flies.
	Scenario string
	// Drones is the fleet size.
	Drones int
	// Topology is the deployed agent's trainable region.
	Topology nn.Config
	// Seed drives every stream.
	Seed int64
	// MetaIters, OnlineIters and MissionSteps are the phase budgets.
	MetaIters, OnlineIters, MissionSteps int

	agentOpts []rl.Option
	agent     *rl.Agent
	world     *env.World
	training  *metrics.FlightTracker
	report    *SwarmReport
}

// NewSwarmExperiment validates the scenario name against the catalog
// (listing the registered names on a miss) and the budgets. The agent
// options apply over the meta and online recipes; an invalid combination
// fails the run. The evaluation backend they name (rl.WithEvalBackend), else
// their train backend, is the one the mission phase flies on.
func NewSwarmExperiment(scenario string, drones int, topology nn.Config, seed int64,
	metaIters, onlineIters, missionSteps int, opts ...rl.Option) (*SwarmExperiment, error) {

	if _, ok := env.LookupScenario(scenario); !ok {
		return nil, fmt.Errorf("scen: unknown scenario %q: registered scenarios are %s",
			scenario, strings.Join(env.ScenarioNames(), ", "))
	}
	if drones < 1 {
		return nil, fmt.Errorf("scen: swarm size %d must be >= 1", drones)
	}
	if metaIters < 1 || onlineIters < 1 || missionSteps < 1 {
		return nil, fmt.Errorf("scen: swarm budgets (meta %d, online %d, mission %d) must be positive",
			metaIters, onlineIters, missionSteps)
	}
	return &SwarmExperiment{
		Scenario: scenario, Drones: drones, Topology: topology, Seed: seed,
		MetaIters: metaIters, OnlineIters: onlineIters, MissionSteps: missionSteps,
		agentOpts: opts,
	}, nil
}

// Name implements core.Experiment.
func (e *SwarmExperiment) Name() string { return "swarm" }

// Phases implements core.Experiment.
func (e *SwarmExperiment) Phases() []core.Phase {
	return []core.Phase{
		{Name: "meta-train", Jobs: 1, Job: e.metaJob},
		{Name: "online", Jobs: 1, Job: e.onlineJob},
		{Name: "swarm", Jobs: 1, Job: e.swarmJob},
	}
}

func (e *SwarmExperiment) metaJob(rc *core.RunContext, _ int) error {
	sc, _ := env.LookupScenario(e.Scenario)
	e.world = sc.Build(e.Seed + 1)
	meta := env.MetaForKind(e.world.Kind, e.Seed+1000)
	spec := nn.NavNetSpec()
	opts, err := transfer.MetaOptions(e.Seed+1, e.MetaIters, e.agentOpts...)
	if err != nil {
		return err
	}
	deployOpts, err := transfer.OnlineOptions(e.Seed+2, e.OnlineIters, e.agentOpts...)
	if err != nil {
		return err
	}
	snap, tracker := transfer.MetaTrain(meta, spec, e.MetaIters, opts)
	agent, err := transfer.Deploy(snap, spec, e.Topology, deployOpts)
	if err != nil {
		return fmt.Errorf("scen: deploying swarm meta-model: %w", err)
	}
	e.agent = agent
	rc.Emit(core.Event{
		Env: meta.Name, Config: nn.E2E,
		Iteration: e.MetaIters, Reward: tracker.CumulativeReward(),
	})
	return nil
}

func (e *SwarmExperiment) onlineJob(rc *core.RunContext, _ int) error {
	loop, _ := transfer.BuildOnlineLoop(e.agent, e.world, nn.NavNetSpec(), e.Topology, e.OnlineIters, e.Seed+7700)
	if _, err := loop.Run(rc.Context(), e.OnlineIters); err != nil {
		return err
	}
	e.training = loop.Tracker
	rc.Emit(core.Event{
		Env: e.world.Name, Config: e.Topology,
		Iteration: e.OnlineIters, Reward: loop.Tracker.CumulativeReward(),
	})
	return nil
}

func (e *SwarmExperiment) swarmJob(rc *core.RunContext, _ int) error {
	// The mission is a deployment: it flies the backend the agent's Greedy
	// flies after the hand-off, whose batched pass gives the lockstep fleet
	// one pass per layer per tick.
	if err := e.agent.HandOff(); err != nil {
		return fmt.Errorf("scen: building swarm backend: %w", err)
	}
	rep := &SwarmReport{Env: e.world.Name, Config: e.Topology, Training: e.training}
	rep.Drones = FlySwarm(e.agent.Policy(), e.world, e.Drones, e.MissionSteps, e.Seed+5000)
	rep.Substrate = e.agent.Substrate()
	// Merge in index order, like the flight driver's per-run ledgers.
	for _, d := range rep.Drones {
		rep.TotalSteps += d.Steps
		rep.TotalCrashes += d.Crashes
		rep.TotalDistance += d.Distance
		rep.MeanReward += d.MeanReward
		rep.MeanSFD += d.SFD
	}
	rep.MeanReward /= float64(e.Drones)
	rep.MeanSFD /= float64(e.Drones)
	e.report = rep
	rc.Emit(core.Event{
		Env: e.world.Name, Config: e.Topology,
		Iteration: e.MissionSteps * e.Drones, Reward: rep.MeanSFD,
	})
	return nil
}

// Report returns the merged mission outcome once Run finished, nil before.
func (e *SwarmExperiment) Report() *SwarmReport { return e.report }
