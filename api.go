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

// This file is the composable experiment API: a Spec built from functional
// options (New), a scenario catalog (Scenarios, RegisterScenario), and a
// unified context-aware engine (Run) that executes any Experiment with
// bounded concurrency, streaming progress and prompt cancellation.
//
//	spec, err := dronerl.New(
//		dronerl.WithSeed(7),
//		dronerl.WithTopology(dronerl.L3),
//		dronerl.WithScenarios("indoor-apartment", "warehouse"),
//	)
//	exp, err := spec.Flight()
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
// selectable by Spec.Flight, cmd/droneflight and anything else that names
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

// Spec is a validated experiment configuration assembled by New. The zero
// value is not usable; every Spec has passed Validate.
type Spec struct {
	topology  nn.Config
	scale     core.FlightScale
	scenarios []string
	agentOpts []rl.Option
	swarm     int
	stages    []Stage
}

// Option configures a Spec under construction.
type Option func(*Spec) error

// New builds and validates an experiment Spec. Defaults: the L3 topology,
// the QuickScale iteration budget with seed 1, and the paper's four test
// scenarios. Inconsistent combinations (a DoubleDQN agent without a target
// network, an unknown scenario name, a zero iteration budget) are rejected
// with an error instead of being silently repaired.
func New(opts ...Option) (*Spec, error) {
	s := &Spec{topology: nn.L3, scale: core.QuickScale()}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WithTopology selects the training topology for agents built from the
// Spec (L2, L3, L4 or E2E). Read by Swarm, Curriculum, Agent and Deploy;
// Flight and Missions always compare all four.
func WithTopology(cfg Config) Option {
	return func(s *Spec) error {
		switch cfg {
		case nn.E2E, nn.L2, nn.L3, nn.L4:
			s.topology = cfg
			return nil
		}
		return fmt.Errorf("dronerl: unknown topology %v", cfg)
	}
}

// WithSeed sets the experiment seed every RNG derives from. Read by every
// entry point.
func WithSeed(seed int64) Option {
	return func(s *Spec) error {
		s.scale.Seed = seed
		return nil
	}
}

// WithMetaIters sets the meta-environment E2E training budget. Read by
// Flight, Swarm and Curriculum; Missions meta-trains a fixed 800
// iterations.
func WithMetaIters(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: meta iterations %d must be >= 1", n)
		}
		s.scale.MetaIters = n
		return nil
	}
}

// WithOnlineIters sets the per-scenario online RL budget. Read by Flight,
// Swarm and Curriculum (the default per-stage budget); a mission's frame
// count is set by its energy budget instead.
func WithOnlineIters(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: online iterations %d must be >= 1", n)
		}
		s.scale.OnlineIters = n
		return nil
	}
}

// WithEvalSteps sets the greedy evaluation flight length. Read by Flight
// and Swarm (the mission length); Curriculum and Missions have no
// fixed-length evaluation flight.
func WithEvalSteps(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: evaluation steps %d must be >= 1", n)
		}
		s.scale.EvalSteps = n
		return nil
	}
}

// WithScale installs a whole iteration budget at once (QuickScale,
// FullScale, or a custom one): WithSeed, WithMetaIters, WithOnlineIters
// and WithEvalSteps together, read where each of those is.
func WithScale(scale FlightScale) Option {
	return func(s *Spec) error {
		s.scale = scale
		return nil
	}
}

// WithScenarios selects the worlds a flight experiment sweeps, by catalog
// name and in the given order. Unknown names fail Validate. Read by Flight
// (every name), Swarm (the first) and Curriculum (the first one's kind
// picks the default ladder); Missions always fly the indoor apartment.
func WithScenarios(names ...string) Option {
	return func(s *Spec) error {
		if len(names) == 0 {
			return fmt.Errorf("dronerl: WithScenarios needs at least one name")
		}
		s.scenarios = append([]string(nil), names...)
		return nil
	}
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

// Curriculum drives the engine through progressively harder generated
// stages; build one with Spec.Curriculum and execute it with Run.
type Curriculum = scen.Curriculum

// CurriculumReport is a finished curriculum's promotion trace and outcome.
type CurriculumReport = scen.CurriculumReport

// SwarmExperiment is the multi-drone mission driver; build one with
// Spec.Swarm and execute it with Run. Its mission phase flies the backend
// selected with WithBackend, like every other deployment phase.
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
// appends it to the Spec's scenario list, so flight experiments sweep the
// generated world alongside any named ones. Read where WithScenarios is.
func WithGenerated(g GenSpec) Option {
	return func(s *Spec) error {
		name, err := scen.RegisterSpec(g)
		if err != nil {
			return fmt.Errorf("dronerl: WithGenerated: %w", err)
		}
		s.scenarios = append(s.scenarios, name)
		return nil
	}
}

// WithSwarm sets the fleet size Spec.Swarm flies (>= 1; the default 4).
// Read by Swarm only.
func WithSwarm(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("dronerl: swarm size %d must be >= 1", n)
		}
		s.swarm = n
		return nil
	}
}

// WithCurriculum installs a custom stage ladder for Spec.Curriculum in place
// of the kind's default one. Stage specs are validated by Validate. Read by
// Curriculum only.
func WithCurriculum(stages ...Stage) Option {
	return func(s *Spec) error {
		if len(stages) == 0 {
			return fmt.Errorf("dronerl: WithCurriculum needs at least one stage")
		}
		s.stages = append([]Stage(nil), stages...)
		return nil
	}
}

// Agent hyper-parameter options. Each forwards to the rl option layer: every
// experiment phase applies them, in order, over its training recipe
// (transfer.MetaOptions/OnlineOptions, rl.Options.With), so only the
// fields set here change, explicit zeros included, and Validate checks the
// combination. Unless its doc says otherwise, an agent option is read by
// every entry point: Flight, Missions (online and inference-only, whose
// meta-training reads it), Swarm, Curriculum, Agent and Deploy. An entry
// point that does not read an option refuses it with an error naming the
// option, so no option is silently dropped.

// WithGamma sets the discount factor, in (0, 1]. Read by every entry point.
func WithGamma(g float64) Option { return agentOption(rl.WithGamma(g)) }

// WithLR sets the SGD learning rate (> 0). It overrides both the
// meta-training and online learning rates. Read by every entry point.
func WithLR(lr float64) Option { return agentOption(rl.WithLR(lr)) }

// WithBatchSize sets the training batch (>= 1). Read by every entry point;
// Missions also price the hardware model's frame rate at it.
func WithBatchSize(n int) Option { return agentOption(rl.WithBatchSize(n)) }

// WithReplayCapacity bounds the experience buffer (>= batch size). Read by
// every entry point.
func WithReplayCapacity(n int) Option { return agentOption(rl.WithReplayCapacity(n)) }

// WithEpsilon sets the exploration schedule's endpoints; an explicit end of
// 0 anneals to fully greedy. Read by every entry point.
func WithEpsilon(start, end float64) Option { return agentOption(rl.WithEpsilon(start, end)) }

// WithEpsDecaySteps sets the exploration annealing horizon (>= 1). Read by
// every entry point.
func WithEpsDecaySteps(n int) Option { return agentOption(rl.WithEpsDecaySteps(n)) }

// WithTargetSync sets the target-network refresh interval; an explicit 0
// disables the target network. Read by every entry point.
func WithTargetSync(steps int) Option { return agentOption(rl.WithTargetSync(steps)) }

// WithDoubleDQN toggles Double-DQN bootstrapping; it requires a target
// network, so combining it with WithTargetSync(0) fails validation. Read by
// every entry point.
func WithDoubleDQN(on bool) Option { return agentOption(rl.WithDoubleDQN(on)) }

// WithGradClip bounds the per-batch gradient norm; an explicit 0 disables
// clipping. Read by every entry point.
func WithGradClip(limit float64) Option { return agentOption(rl.WithGradClip(limit)) }

// WithActors sets the number of concurrent actors of the online-learning
// phases (>= 1). Read by Flight, Swarm, Curriculum, Agent and Deploy;
// Missions refuses n > 1, since the energy budget fixes the frame count and
// one drone flies it. The default 1 runs the deterministic serial schedule,
// bit-identical to the historical loop; higher counts run the asynchronous
// actor/learner pipeline — actors step cloned worlds and feed per-actor
// replay shards while the learner trains concurrently and publishes policy
// snapshots the actors adopt at episode boundaries. Learning results of
// multi-actor runs depend on goroutine interleaving and are not
// reproducible run to run.
func WithActors(n int) Option { return agentOption(rl.WithActors(n)) }

// WithSyncEvery sets the learner's policy-publish interval in training
// steps (>= 1, default 8). Read by Flight, Swarm and Curriculum together
// with WithActors(n > 1), and by Agent and Deploy; every experiment refuses
// it without a fleet, since a single actor publishes nothing. Under E2E
// every publish pays an STT-MRAM snapshot write in the energy accounting,
// under L2/L3/L4 only cheap SRAM buffer traffic.
func WithSyncEvery(steps int) Option { return agentOption(rl.WithSyncEvery(steps)) }

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
// names fail Validate. Read by Flight, Swarm, inference-only Missions, Agent
// and Deploy; an online mission (which acts on the network it trains) and
// Curriculum (which has no evaluation phase) refuse it.
func WithBackend(name string) Option { return agentOption(rl.WithEvalBackend(name)) }

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
// on the float reference. Unknown or non-trainable names fail Validate or
// activation respectively. Read by Flight, Swarm, Curriculum, online
// Missions, Agent and Deploy; inference-only Missions refuse it.
func WithTrainBackend(name string) Option { return agentOption(rl.WithTrainBackend(name)) }

func agentOption(o rl.Option) Option {
	return func(s *Spec) error {
		s.agentOpts = append(s.agentOpts, o)
		return nil
	}
}

// Validate checks the Spec end to end: the iteration budget, every scenario
// name against the catalog, and the agent options (ranges and cross-field
// consistency, e.g. DoubleDQN without a target network). New calls it; it
// is exported so callers mutating a FlightScale via WithScale can re-check
// explicitly.
func (s *Spec) Validate() error {
	if s.scale.MetaIters < 1 || s.scale.OnlineIters < 1 || s.scale.EvalSteps < 1 {
		return fmt.Errorf("dronerl: iteration budget %+v must be positive in every dimension", s.scale)
	}
	for _, name := range s.scenarios {
		if _, ok := env.LookupScenario(name); !ok {
			return fmt.Errorf("dronerl: unknown scenario %q: registered scenarios are %s",
				name, strings.Join(env.ScenarioNames(), ", "))
		}
	}
	if s.swarm < 0 {
		return fmt.Errorf("dronerl: swarm size %d must be >= 1", s.swarm)
	}
	for i, st := range s.stages {
		if err := st.Spec.Validate(); err != nil {
			return fmt.Errorf("dronerl: curriculum stage %d: %w", i, err)
		}
	}
	_, err := rl.NewOptions(s.agentOpts...)
	return err
}

// Topology returns the Spec's training topology.
func (s *Spec) Topology() Config { return s.topology }

// Scale returns the Spec's iteration budget.
func (s *Spec) Scale() FlightScale { return s.scale }

// ScenarioNames returns the selected scenario list (the paper's four test
// worlds when none were chosen).
func (s *Spec) ScenarioNames() []string {
	if len(s.scenarios) == 0 {
		return env.DefaultFlightScenarios()
	}
	return append([]string(nil), s.scenarios...)
}

// Flight builds the Fig. 10/11 flight experiment over the Spec's scenarios:
// meta-train one model per environment kind, deploy into every scenario
// under all four topologies, learn online, evaluate greedily. It fails on
// WithSyncEvery without WithActors(n > 1). Execute it with Run.
func (s *Spec) Flight() (*FlightExperiment, error) {
	e, err := core.NewFlightExperiment(s.scale, s.scenarios...)
	if err != nil {
		return nil, err
	}
	if err := e.SetAgentOverrides(s.agentOpts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Missions builds the co-design mission comparison: every topology flies
// the indoor apartment under a fixed compute-energy budget, priced by the
// hardware model. The Spec's seed and agent hyper-parameters (gamma,
// learning rate, batch size, ...) override the mission's training
// templates; the world and the compact 800-iteration meta-training budget
// are fixed by design (missions need a reasonable policy, not a
// figure-grade one), so the Spec's scenarios and iteration budgets are not
// read. It fails on an agent option a mission does not read: WithActors(n >
// 1), WithBackend when online, WithTrainBackend when inference-only, and
// WithSyncEvery. Execute it with Run.
func (s *Spec) Missions(budgetJ float64, online bool) (*MissionExperiment, error) {
	e := core.NewMissionExperiment(s.scale.Seed, budgetJ, online)
	if err := e.SetAgentOverrides(s.agentOpts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Curriculum builds the staged-training experiment: meta-train once for the
// ladder's kind, then adapt the policy online through each generated stage,
// promoting on the Spec's moving-average reward and safe-flight-distance
// thresholds. The ladder is the one installed with WithCurriculum, or the
// kind-default ladder matching the Spec's first scenario. It fails on
// WithBackend (the curriculum has no evaluation phase) and on WithSyncEvery
// without WithActors(n > 1). Execute it with Run; with a fixed seed the
// promotion trace is reproducible run to run.
func (s *Spec) Curriculum() (*Curriculum, error) {
	stages := s.stages
	if len(stages) == 0 {
		sc, ok := env.LookupScenario(s.ScenarioNames()[0])
		if !ok {
			return nil, fmt.Errorf("dronerl: unknown scenario %q: registered scenarios are %s",
				s.ScenarioNames()[0], strings.Join(env.ScenarioNames(), ", "))
		}
		stages = scen.DefaultLadder(sc.Kind)
	}
	c, err := scen.NewCurriculum(stages, s.topology, s.scale.Seed, s.scale.MetaIters, s.scale.OnlineIters)
	if err != nil {
		return nil, err
	}
	if err := c.SetAgentOverrides(s.agentOpts...); err != nil {
		return nil, err
	}
	return c, nil
}

// Swarm builds the multi-drone mission over the Spec's first scenario:
// meta-train and adapt one policy, then fly the fleet (WithSwarm, default 4)
// as clones of that world in lockstep on the WithBackend engine, batching
// the whole swarm's observations into one pass per layer. EvalSteps is the
// mission length. It fails on WithSyncEvery without WithActors(n > 1).
// Execute it with Run.
func (s *Spec) Swarm() (*SwarmExperiment, error) {
	drones := s.swarm
	if drones == 0 {
		drones = 4
	}
	e, err := scen.NewSwarmExperiment(s.ScenarioNames()[0], drones, s.topology,
		s.scale.Seed, s.scale.MetaIters, s.scale.OnlineIters, s.scale.EvalSteps)
	if err != nil {
		return nil, err
	}
	if err := e.SetAgentOverrides(s.agentOpts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Agent builds a Q-learning agent over the scaled NavNet architecture with
// the Spec's topology, seed and hyper-parameters.
func (s *Spec) Agent() (*rl.Agent, error) {
	opts, err := rl.Options{Seed: s.scale.Seed}.With(s.agentOpts...)
	if err != nil {
		return nil, err
	}
	return rl.NewAgent(nn.NavNetSpec(), s.topology, opts), nil
}

// Deploy installs a transferred snapshot into a new agent frozen per the
// Spec's topology, with the Spec's hyper-parameters.
func (s *Spec) Deploy(snapshot *nn.Snapshot) (*rl.Agent, error) {
	opts, err := rl.Options{Seed: s.scale.Seed}.With(s.agentOpts...)
	if err != nil {
		return nil, err
	}
	return transfer.Deploy(snapshot, nn.NavNetSpec(), s.topology, opts)
}
