package dronerl

import (
	"context"
	"fmt"
	"strings"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/scen"
	"dronerl/internal/transfer"
)

// This file is the composable experiment API: one entry point per
// experiment (Flight, Missions, OnlineMissions, Swarm, Curriculum) and per
// agent (Agent, Deploy), each taking its own option type; a scenario
// catalog (Scenarios, RegisterScenario); and a unified context-aware engine
// (Run) that executes any Experiment with bounded concurrency, streaming
// progress and prompt cancellation.
//
//	exp, err := dronerl.Flight(
//		dronerl.WithSeed(7),
//		dronerl.WithScenarios("indoor-apartment", "warehouse"),
//	)
//	err = dronerl.Run(ctx, exp, dronerl.WithWorkers(4),
//		dronerl.WithProgress(func(ev dronerl.Event) { fmt.Println(ev) }))
//	report := exp.Report()

// Experiment is a unit of work the engine can execute; FlightExperiment and
// MissionExperiment implement it, and callers can supply their own.
type Experiment = core.Experiment

// Event is one streaming progress report (per completed run: environment,
// topology, iterations, reward).
type Event = core.Event

// ProgressFunc receives streaming events; the engine serializes calls.
type ProgressFunc = core.ProgressFunc

// RunOption configures one Run invocation.
type RunOption = core.RunOption

// FlightExperiment is the Fig. 10/11 reproduction over a scenario list.
type FlightExperiment = core.FlightExperiment

// MissionExperiment is the compute-budget co-design comparison.
type MissionExperiment = core.MissionExperiment

// Run executes an experiment: each phase's jobs fan across a worker pool
// with a barrier between phases. Cancelling ctx stops the engine within one
// run boundary (in-flight runs finish, nothing new starts, all workers exit
// before Run returns). Results are bit-identical for every worker count,
// and a cancelled-then-restarted experiment reproduces the uninterrupted
// output exactly.
func Run(ctx context.Context, exp Experiment, opts ...RunOption) error {
	return core.Run(ctx, exp, opts...)
}

// WithWorkers bounds Run's concurrency: 0 selects GOMAXPROCS, 1 forces the
// serial schedule.
func WithWorkers(n int) RunOption { return core.WithWorkers(n) }

// WithProgress streams per-run events to fn as the experiment executes.
func WithProgress(fn ProgressFunc) RunOption { return core.WithProgress(fn) }

// Scenario is a named, seedable world builder from the catalog.
type Scenario = env.Scenario

// Scenarios returns the scenario catalog sorted by name: the paper's four
// test environments, the meta-environments, the extension worlds
// (warehouse, outdoor-meta-rich) and the ideal-depth ablation variants,
// plus anything the caller registered.
func Scenarios() []Scenario { return env.Scenarios() }

// RegisterScenario adds a named world builder to the catalog, making it
// selectable by WithScenarios, cmd/droneflight and anything else that names
// scenarios. The builder must be a pure function of the seed (identical
// seeds must yield identical worlds — the engine's determinism relies on
// it); it is invoked once here to record the world's kind in the catalog
// listing. Registration fails on a duplicate or empty name or a nil
// builder.
func RegisterScenario(name string, build func(seed int64) *env.World) error {
	s := env.Scenario{Name: name, Build: build}
	if build != nil {
		if w := build(0); w != nil {
			s.Kind = w.Kind
		}
	}
	return env.RegisterScenario(s)
}

// spec is the one configuration every option writes and every entry point
// reads. Defaults: the L3 topology, the QuickScale iteration budget with
// seed 1, the paper's four test scenarios and a fleet of 4.
type spec struct {
	topology  nn.Config
	scale     core.FlightScale
	scenarios []string
	agentOpts []rl.Option
	swarm     int
	stages    []Stage
}

// One option interface per entry point. Every With… value implements the
// interfaces of exactly the entry points that read it, so an option an
// entry point does not read does not compile there.
type (
	// FlightOption configures Flight.
	FlightOption interface {
		option
		flight()
	}
	// MissionOption configures Missions, the inference-only mission.
	MissionOption interface {
		option
		missions()
	}
	// OnlineMissionOption configures OnlineMissions.
	OnlineMissionOption interface {
		option
		onlineMissions()
	}
	// SwarmOption configures Swarm.
	SwarmOption interface {
		option
		swarm()
	}
	// CurriculumOption configures Curriculum.
	CurriculumOption interface {
		option
		curriculum()
	}
	// AgentOption configures Agent and Deploy.
	AgentOption interface {
		option
		agent()
	}
)

// option is what every With… value does: one write to the shared spec.
type option interface{ apply(*spec) error }

// setter is an option's write; the option types below add its readers.
type setter func(*spec) error

func (f setter) apply(s *spec) error { return f(s) }

// The option types, one per set of readers, each with one marker method
// per entry point that reads it.
type (
	// everyEntry: the seed, and the agent hyper-parameters every phase
	// trains with.
	everyEntry struct{ setter }
	// topologyOption: Flight and the missions compare all four topologies.
	topologyOption struct{ setter }
	// budgetOption: a mission meta-trains a fixed 800 iterations in the
	// indoor apartment, and its energy budget sets its frame count.
	budgetOption struct{ setter }
	// evalStepsOption: only Flight and Swarm fly a fixed-length evaluation.
	evalStepsOption  struct{ setter }
	swarmOption      struct{ setter }
	curriculumOption struct{ setter }
	// fleetOption: a mission's energy budget fixes its frame count, and one
	// drone flies it.
	fleetOption struct{ setter }
	// evalBackendOption: an online mission acts on the network it trains,
	// and the curriculum has no evaluation phase.
	evalBackendOption struct{ setter }
	// trainBackendOption: an inference-only mission never trains.
	trainBackendOption struct{ setter }
)

func (everyEntry) flight()         {}
func (everyEntry) missions()       {}
func (everyEntry) onlineMissions() {}
func (everyEntry) swarm()          {}
func (everyEntry) curriculum()     {}
func (everyEntry) agent()          {}

func (topologyOption) swarm()      {}
func (topologyOption) curriculum() {}
func (topologyOption) agent()      {}

func (budgetOption) flight()     {}
func (budgetOption) swarm()      {}
func (budgetOption) curriculum() {}

func (evalStepsOption) flight() {}
func (evalStepsOption) swarm()  {}

func (swarmOption) swarm() {}

func (curriculumOption) curriculum() {}

func (fleetOption) flight()     {}
func (fleetOption) swarm()      {}
func (fleetOption) curriculum() {}
func (fleetOption) agent()      {}

func (evalBackendOption) flight()   {}
func (evalBackendOption) missions() {}
func (evalBackendOption) swarm()    {}
func (evalBackendOption) agent()    {}

func (trainBackendOption) flight()         {}
func (trainBackendOption) onlineMissions() {}
func (trainBackendOption) swarm()          {}
func (trainBackendOption) curriculum()     {}
func (trainBackendOption) agent()          {}

// newSpec applies opts, in order, over the defaults and validates the
// result: every scenario name against the catalog, and the agent options'
// ranges and cross-field consistency (e.g. DoubleDQN without a target
// network). Inconsistent combinations are rejected with an error instead
// of being silently repaired.
func newSpec[O option](opts []O) (*spec, error) {
	s := &spec{topology: nn.L3, scale: core.QuickScale(), swarm: 4}
	for _, o := range opts {
		if any(o) == nil {
			continue
		}
		if err := o.apply(s); err != nil {
			return nil, err
		}
	}
	for _, name := range s.scenarios {
		if _, ok := env.LookupScenario(name); !ok {
			return nil, fmt.Errorf("dronerl: unknown scenario %q: registered scenarios are %s",
				name, strings.Join(env.ScenarioNames(), ", "))
		}
	}
	if _, err := rl.NewOptions(s.agentOpts...); err != nil {
		return nil, err
	}
	return s, nil
}

// newExperiment is newSpec plus the one combination an experiment refuses
// that its types cannot: WithSyncEvery without WithActors(n > 1), since only
// an actor fleet publishes policies. An agent reads the interval alone (a
// network learner publishes to remote actors). The options are applied to a
// bare rl.Options, so a non-zero field is one an option set.
func newExperiment[O option](opts []O) (*spec, error) {
	s, err := newSpec(opts)
	if err != nil {
		return nil, err
	}
	var set rl.Options
	for _, o := range s.agentOpts {
		_ = o(&set)
	}
	if set.SyncEvery != 0 && set.Actors <= 1 {
		return nil, fmt.Errorf("dronerl: WithSyncEvery(%d) needs WithActors(n > 1): "+
			"only an actor fleet publishes policies", set.SyncEvery)
	}
	return s, nil
}

// scenario is the one selected scenario, or the paper's first test world
// when none is: the world Swarm flies, and the kind of Curriculum's default
// ladder. A longer list is refused by name, since those entry points fly
// one world.
func (s *spec) scenario(entry string) (string, error) {
	switch len(s.scenarios) {
	case 0:
		return env.DefaultFlightScenarios()[0], nil
	case 1:
		return s.scenarios[0], nil
	}
	return "", fmt.Errorf("dronerl: %s flies one scenario, got %d: %s",
		entry, len(s.scenarios), strings.Join(s.scenarios, ", "))
}

// WithTopology selects the training topology of the agents an entry point
// builds (L2, L3, L4 or E2E; default L3).
func WithTopology(cfg Config) topologyOption {
	return topologyOption{setter: func(s *spec) error {
		switch cfg {
		case nn.E2E, nn.L2, nn.L3, nn.L4:
			s.topology = cfg
			return nil
		}
		return fmt.Errorf("dronerl: unknown topology %v", cfg)
	}}
}

// WithSeed sets the experiment seed every RNG derives from (default 1).
func WithSeed(seed int64) everyEntry {
	return everyEntry{setter: func(s *spec) error {
		s.scale.Seed = seed
		return nil
	}}
}

// WithMetaIters sets the meta-environment E2E training budget (>= 1).
func WithMetaIters(n int) budgetOption {
	return budgetOption{setter: func(s *spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: meta iterations %d must be >= 1", n)
		}
		s.scale.MetaIters = n
		return nil
	}}
}

// WithOnlineIters sets the per-scenario online RL budget (>= 1), the
// curriculum's default per-stage budget.
func WithOnlineIters(n int) budgetOption {
	return budgetOption{setter: func(s *spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: online iterations %d must be >= 1", n)
		}
		s.scale.OnlineIters = n
		return nil
	}}
}

// WithEvalSteps sets the greedy evaluation flight length (>= 1), the
// swarm's mission length.
func WithEvalSteps(n int) evalStepsOption {
	return evalStepsOption{setter: func(s *spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: evaluation steps %d must be >= 1", n)
		}
		s.scale.EvalSteps = n
		return nil
	}}
}

// WithScenarios selects worlds by catalog name, in the given order: a
// flight sweeps every one. A swarm flies, and a curriculum's default ladder
// takes its kind from, exactly one, so both refuse a longer list. Unknown
// names are rejected.
func WithScenarios(names ...string) budgetOption {
	return budgetOption{setter: func(s *spec) error {
		if len(names) == 0 {
			return fmt.Errorf("dronerl: WithScenarios needs at least one name")
		}
		s.scenarios = append([]string(nil), names...)
		return nil
	}}
}

// Procedural scenario generation, curriculum learning and swarm missions
// (re-exported from internal/scen).

// GenSpec parameterizes the procedural world generator: kind, size, corridor
// width, obstacle density, box fraction, walls, turbulence and payload. The
// zero value of every field except Kind selects a kind-appropriate default.
type GenSpec = scen.GenSpec

// Stage is one rung of a curriculum ladder: a generated world spec plus the
// promotion thresholds the agent must clear to advance.
type Stage = scen.Stage

// CurriculumExperiment drives the engine through progressively harder
// generated stages; build one with Curriculum and execute it with Run.
type CurriculumExperiment = scen.Curriculum

// CurriculumReport is a finished curriculum's promotion trace and outcome.
type CurriculumReport = scen.CurriculumReport

// SwarmExperiment is the multi-drone mission driver; build one with Swarm
// and execute it with Run. Its mission phase flies the backend selected
// with WithBackend, like every other deployment phase.
type SwarmExperiment = scen.SwarmExperiment

// SwarmReport merges per-drone mission stats in index order.
type SwarmReport = scen.SwarmReport

// Generate synthesizes a world from the spec, fully deterministically:
// identical spec and seed yield bit-identical worlds.
func Generate(spec GenSpec, seed int64) (*env.World, error) { return scen.Generate(spec, seed) }

// DefaultCurriculum returns the stock three-stage ladder for a world kind
// ("indoor" or "outdoor"), from wide corridors to narrow, calm to turbulent.
func DefaultCurriculum(kind string) []Stage { return scen.DefaultLadder(kind) }

// WithGenerated registers the spec's scenario family in the catalog (under
// its canonical FamilyName; re-registering the same spec is a no-op) and
// appends it to the scenario list, like a WithScenarios name: Swarm and
// Curriculum refuse it beside another scenario.
func WithGenerated(g GenSpec) budgetOption {
	return budgetOption{setter: func(s *spec) error {
		name, err := scen.RegisterSpec(g)
		if err != nil {
			return fmt.Errorf("dronerl: WithGenerated: %w", err)
		}
		s.scenarios = append(s.scenarios, name)
		return nil
	}}
}

// WithSwarm sets the fleet size the swarm flies (>= 1; default 4).
func WithSwarm(n int) swarmOption {
	return swarmOption{setter: func(s *spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: swarm size %d must be >= 1", n)
		}
		s.swarm = n
		return nil
	}}
}

// WithCurriculum installs a custom stage ladder in place of the kind's
// default one. Every stage's spec must validate.
func WithCurriculum(stages ...Stage) curriculumOption {
	return curriculumOption{setter: func(s *spec) error {
		if len(stages) == 0 {
			return fmt.Errorf("dronerl: WithCurriculum needs at least one stage")
		}
		for i, st := range stages {
			if err := st.Spec.Validate(); err != nil {
				return fmt.Errorf("dronerl: curriculum stage %d: %w", i, err)
			}
		}
		s.stages = append([]Stage(nil), stages...)
		return nil
	}}
}

// Agent hyper-parameter options. Each forwards to the rl option layer: every
// phase applies them, in order, over its training recipe
// (transfer.MetaOptions/OnlineOptions, rl.Options.With), so only the fields
// set here change, explicit zeros included, and the entry point validates
// the combination. An inference-only mission's meta-training reads them too.

// WithGamma sets the discount factor, in (0, 1].
func WithGamma(g float64) everyEntry { return agentOption(rl.WithGamma(g)) }

// WithLR sets the SGD learning rate (> 0). It overrides both the
// meta-training and online learning rates.
func WithLR(lr float64) everyEntry { return agentOption(rl.WithLR(lr)) }

// WithBatchSize sets the training batch (>= 1). A mission also prices the
// hardware model's frame rate at it.
func WithBatchSize(n int) everyEntry { return agentOption(rl.WithBatchSize(n)) }

// WithReplayCapacity bounds the experience buffer (>= batch size).
func WithReplayCapacity(n int) everyEntry { return agentOption(rl.WithReplayCapacity(n)) }

// WithEpsilon sets the exploration schedule's endpoints; an explicit end of
// 0 anneals to fully greedy.
func WithEpsilon(start, end float64) everyEntry { return agentOption(rl.WithEpsilon(start, end)) }

// WithEpsDecaySteps sets the exploration annealing horizon (>= 1).
func WithEpsDecaySteps(n int) everyEntry { return agentOption(rl.WithEpsDecaySteps(n)) }

// WithTargetSync sets the target-network refresh interval; an explicit 0
// disables the target network.
func WithTargetSync(steps int) everyEntry { return agentOption(rl.WithTargetSync(steps)) }

// WithDoubleDQN toggles Double-DQN bootstrapping; it requires a target
// network, so combining it with WithTargetSync(0) fails validation.
func WithDoubleDQN(on bool) everyEntry { return agentOption(rl.WithDoubleDQN(on)) }

// WithGradClip bounds the per-batch gradient norm; an explicit 0 disables
// clipping.
func WithGradClip(limit float64) everyEntry { return agentOption(rl.WithGradClip(limit)) }

// WithActors sets the number of concurrent actors of the online-learning
// phases (>= 1). The default 1 runs the deterministic serial schedule,
// bit-identical to the historical loop; higher counts run the asynchronous
// actor/learner pipeline — actors step cloned worlds and feed per-actor
// replay shards while the learner trains concurrently and publishes policy
// snapshots the actors adopt at episode boundaries. Learning results of
// multi-actor runs depend on goroutine interleaving and are not
// reproducible run to run.
func WithActors(n int) fleetOption { return fleetOption{setter: appendAgent(rl.WithActors(n))} }

// WithSyncEvery sets the learner's policy-publish interval in training
// steps (>= 1, default 8). An experiment needs WithActors(n > 1) beside it,
// since a single actor publishes nothing. Under E2E every publish pays an
// STT-MRAM snapshot write in the energy accounting, under L2/L3/L4 only
// cheap SRAM buffer traffic.
func WithSyncEvery(steps int) fleetOption {
	return fleetOption{setter: appendAgent(rl.WithSyncEvery(steps))}
}

// Inference backends selectable with WithBackend: the substrate the trained
// policy is deployed onto for the greedy evaluation and deployment phases,
// which is where the paper's hardware co-design argument lives. Training
// runs on the float reference unless WithTrainBackend moves it.
const (
	// Float evaluates on the float32 GEMM reference path — the default,
	// and bit-identical to not selecting a backend at all.
	Float = core.FloatBackendName
	// Quant evaluates on the 16-bit fixed-point integer engine, the
	// numeric behaviour of the PE datapath (internal/qnn).
	Quant = core.QuantBackendName
	// Systolic evaluates on the same 16-bit integer engine as Quant — its
	// replies are bit-equal — priced by the analytical hardware model,
	// which charges every inference's memory traffic to a per-run energy
	// ledger (internal/hw).
	Systolic = core.SystolicBackendName
)

// WithBackend selects the inference backend for greedy evaluation and
// deployment phases (Float, Quant, Systolic, or any nn.Backend registered
// with nn.RegisterBackend). Every report of a phase that flies it names it
// (Backend) beside what it charged there (EvalCost); priced backends
// stream per-phase energy/latency/cycle events, the flight report
// accumulates a merged per-device energy ledger, and
// FlightReport.BuildEnergyTable renders the paper-style cost table. Unknown
// names are rejected.
func WithBackend(name string) evalBackendOption {
	return evalBackendOption{setter: appendAgent(rl.WithEvalBackend(name))}
}

// QuantTrain is the trainable 16-bit fixed-point backend selectable with
// WithTrainBackend: integer forward/backward passes and stochastically-
// rounded weight updates, with every weight access charged to the modeled
// STT-MRAM stack.
const QuantTrain = core.QuantTrainBackendName

// WithTrainBackend moves the *training* arithmetic of the online phases
// onto a trainable backend (QuantTrain, or any nn.TrainableBackend
// registered with nn.RegisterBackend): every TD update runs quantized —
// fixed-point forward, integer backprop, stochastically-rounded weight
// write. Every report names it (TrainBackend) beside what it charged before
// the hand-off to evaluation (TrainCost). Without WithBackend the greedy
// evaluation and the swarm fly its trained words too, and name and charge
// them as the evaluation's (Backend, EvalCost). The default keeps training
// on the float reference. Unknown or non-trainable names fail validation or
// activation respectively.
func WithTrainBackend(name string) trainBackendOption {
	return trainBackendOption{setter: appendAgent(rl.WithTrainBackend(name))}
}

// agentOption is an agent option every entry point reads.
func agentOption(o rl.Option) everyEntry { return everyEntry{setter: appendAgent(o)} }

func appendAgent(o rl.Option) setter {
	return func(s *spec) error {
		s.agentOpts = append(s.agentOpts, o)
		return nil
	}
}

// Flight builds the Fig. 10/11 flight experiment over the selected
// scenarios (the paper's four test worlds by default): meta-train one model
// per environment kind, deploy into every scenario under all four
// topologies, learn online, evaluate greedily. Execute it with Run.
func Flight(opts ...FlightOption) (*FlightExperiment, error) {
	s, err := newExperiment(opts)
	if err != nil {
		return nil, err
	}
	return core.NewFlightExperiment(s.scale, s.scenarios, s.agentOpts...)
}

// Missions builds the inference-only co-design mission comparison: every
// topology flies the indoor apartment greedily under a fixed compute-energy
// budget, priced by the hardware model. The world and the compact
// 800-iteration meta-training budget are fixed by design (missions need a
// reasonable policy, not a figure-grade one). Execute it with Run.
func Missions(budgetJ float64, opts ...MissionOption) (*MissionExperiment, error) {
	return missions(budgetJ, false, opts)
}

// OnlineMissions is Missions with online learning: every frame of the
// budget also trains the deployed agent, on the network it acts on.
func OnlineMissions(budgetJ float64, opts ...OnlineMissionOption) (*MissionExperiment, error) {
	return missions(budgetJ, true, opts)
}

func missions[O option](budgetJ float64, online bool, opts []O) (*MissionExperiment, error) {
	s, err := newExperiment(opts)
	if err != nil {
		return nil, err
	}
	return core.NewMissionExperiment(s.scale.Seed, budgetJ, online, s.agentOpts...), nil
}

// Curriculum builds the staged-training experiment: meta-train once for the
// ladder's kind, then adapt the policy online through each generated stage,
// promoting on the stage's moving-average reward and safe-flight-distance
// thresholds. The ladder is the one installed with WithCurriculum, or the
// kind-default ladder matching the one selected scenario. Execute it with
// Run; with a fixed seed the promotion trace is reproducible run to run.
func Curriculum(opts ...CurriculumOption) (*CurriculumExperiment, error) {
	s, err := newExperiment(opts)
	if err != nil {
		return nil, err
	}
	name, err := s.scenario("Curriculum")
	if err != nil {
		return nil, err
	}
	stages := s.stages
	if len(stages) == 0 {
		sc, _ := env.LookupScenario(name)
		stages = scen.DefaultLadder(sc.Kind)
	}
	return scen.NewCurriculum(stages, s.topology, s.scale.Seed, s.scale.MetaIters, s.scale.OnlineIters,
		s.agentOpts...)
}

// Swarm builds the multi-drone mission over the one selected scenario:
// meta-train and adapt one policy, then fly the fleet (WithSwarm) as clones
// of that world in lockstep on the WithBackend engine, batching the whole
// swarm's observations into one pass per layer. WithEvalSteps is the
// mission length. Execute it with Run.
func Swarm(opts ...SwarmOption) (*SwarmExperiment, error) {
	s, err := newExperiment(opts)
	if err != nil {
		return nil, err
	}
	name, err := s.scenario("Swarm")
	if err != nil {
		return nil, err
	}
	return scen.NewSwarmExperiment(name, s.swarm, s.topology,
		s.scale.Seed, s.scale.MetaIters, s.scale.OnlineIters, s.scale.EvalSteps, s.agentOpts...)
}

// Agent builds a Q-learning agent over the scaled NavNet architecture with
// the options' topology, seed and hyper-parameters.
func Agent(opts ...AgentOption) (*rl.Agent, error) {
	s, o, err := agentSpec(opts)
	if err != nil {
		return nil, err
	}
	return rl.NewAgent(nn.NavNetSpec(), s.topology, o), nil
}

// Deploy installs a transferred snapshot into a new agent frozen per the
// options' topology, with their seed and hyper-parameters.
func Deploy(snapshot *nn.Snapshot, opts ...AgentOption) (*rl.Agent, error) {
	s, o, err := agentSpec(opts)
	if err != nil {
		return nil, err
	}
	return transfer.Deploy(snapshot, nn.NavNetSpec(), s.topology, o)
}

func agentSpec(opts []AgentOption) (*spec, rl.Options, error) {
	s, err := newSpec(opts)
	if err != nil {
		return nil, rl.Options{}, err
	}
	o, err := rl.Options{Seed: s.scale.Seed}.With(s.agentOpts...)
	return s, o, err
}
