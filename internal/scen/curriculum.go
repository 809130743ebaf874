package scen

import (
	"fmt"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// Stage is one rung of a curriculum: a generated world family plus the
// promotion thresholds the agent must clear to move on.
type Stage struct {
	// Name labels the stage in the promotion trace and progress events.
	// Empty names default to "stage-<index>".
	Name string
	// Spec is the world family the stage trains in.
	Spec GenSpec
	// Iters is the online-learning budget of one attempt (0 = the
	// curriculum's default stage budget).
	Iters int
	// PromoteReward is the moving-average reward (metrics.FlightTracker's
	// cumulative reward) the attempt must reach.
	PromoteReward float64
	// PromoteSFD is the smoothed safe flight distance in metres the
	// attempt must reach: total distance flown / (crashes + 1), the same
	// +1-smoothed estimate the flight driver evaluates.
	PromoteSFD float64
	// MaxAttempts bounds how often the stage repeats (with fresh worlds of
	// the same family) before the curriculum gives up (0 = 2).
	MaxAttempts int
}

// PromotionRecord is one attempt's outcome in the promotion trace.
type PromotionRecord struct {
	Stage    string
	Attempt  int
	Iters    int
	Reward   float64
	SFD      float64
	Promoted bool
}

// CurriculumReport is the curriculum's aggregated outcome.
type CurriculumReport struct {
	// Trace lists every attempt in execution order. With a fixed seed the
	// trace is bit-reproducible: stages train on the deterministic
	// single-actor schedule and every world derives from the curriculum
	// seed plus the stage and attempt indices.
	Trace []PromotionRecord
	// Completed reports whether every stage promoted; FailedStage names
	// the stage that exhausted its attempts otherwise (later stages are
	// skipped, their absence visible in the trace).
	Completed   bool
	FailedStage string
	// MetaReward is the meta-training phase's final moving-average reward.
	MetaReward float64
	// Substrate names the trainable backend the stages ran on ("" for the
	// float training path) and what it charged. The curriculum has no
	// evaluation phase, so it names no Backend.
	rl.Substrate
}

// DefaultLadder returns the builtin three-stage curriculum for a kind:
// progressively narrower corridors and denser clutter, with turbulence (and
// indoors, partition walls) arriving in the last stage — the
// DroneStabilization-style easy-to-hard schedule. Thresholds are modest on
// purpose: they gate promotion meaningfully at CI iteration budgets without
// demanding figure-grade training.
func DefaultLadder(kind string) []Stage {
	if kind == Outdoor {
		return []Stage{
			{Name: "meadow", Spec: GenSpec{Kind: Outdoor, Corridor: 5, Density: 0.6},
				PromoteReward: 0.25, PromoteSFD: 6},
			{Name: "grove", Spec: GenSpec{Kind: Outdoor, Corridor: 4, Density: 1.1},
				PromoteReward: 0.22, PromoteSFD: 5},
			{Name: "storm", Spec: GenSpec{Kind: Outdoor, Corridor: 3, Density: 1.5, Turbulence: 0.5},
				PromoteReward: 0.20, PromoteSFD: 4},
		}
	}
	return []Stage{
		{Name: "open", Spec: GenSpec{Kind: Indoor, Corridor: 1.3, Density: 2.5},
			PromoteReward: 0.22, PromoteSFD: 1.5},
		{Name: "furnished", Spec: GenSpec{Kind: Indoor, Corridor: 1.0, Density: 4.5, BoxFrac: 0.25},
			PromoteReward: 0.20, PromoteSFD: 1.2},
		{Name: "cramped", Spec: GenSpec{Kind: Indoor, Corridor: 0.7, Density: 6, Walls: 2},
			PromoteReward: 0.18, PromoteSFD: 1.0},
	}
}

// Curriculum drives the core engine through a ladder of generated stages:
// one meta-training phase, then one phase per stage in which the deployed
// agent trains online on a fresh generated world and is promoted when it
// clears the stage's reward and SFD thresholds (repeating up to MaxAttempts
// on new worlds of the same family otherwise). It implements
// core.Experiment, so core.Run gives it worker pooling, per-stage events
// and context cancellation like every other driver; because every phase is
// a single job on the serial single-actor schedule (unless rl.WithActors
// fans the stages out over cloned worlds), a fixed seed reproduces the
// promotion trace exactly.
type Curriculum struct {
	// Topology is the trainable-region configuration of the deployed agent.
	Topology nn.Config
	// Seed is the base every stage world and RNG stream derives from.
	Seed int64
	// MetaIters and StageIters are the meta-training budget and the
	// default per-attempt online budget.
	MetaIters  int
	StageIters int

	stages    []Stage
	agentOpts []rl.Option

	agent       *rl.Agent
	metaReward  float64
	trace       []PromotionRecord
	failed      bool
	failedStage string
	report      *CurriculumReport
}

// NewCurriculum validates the stage ladder and builds the runner. Every
// stage spec must validate; metaIters and stageIters must be positive. The
// agent options apply over the meta and online recipes, exactly like the
// flight driver's; an invalid combination fails the run.
func NewCurriculum(stages []Stage, topology nn.Config, seed int64, metaIters, stageIters int,
	opts ...rl.Option) (*Curriculum, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("scen: curriculum needs at least one stage")
	}
	if metaIters < 1 || stageIters < 1 {
		return nil, fmt.Errorf("scen: curriculum budgets (meta %d, stage %d) must be positive", metaIters, stageIters)
	}
	own := make([]Stage, len(stages))
	copy(own, stages)
	for i := range own {
		v, err := own[i].Spec.normalized()
		if err != nil {
			return nil, fmt.Errorf("scen: stage %d: %w", i, err)
		}
		own[i].Spec = v
		if own[i].Name == "" {
			own[i].Name = fmt.Sprintf("stage-%d", i)
		}
		if own[i].Iters == 0 {
			own[i].Iters = stageIters
		}
		if own[i].MaxAttempts == 0 {
			own[i].MaxAttempts = 2
		}
		if own[i].Iters < 1 || own[i].MaxAttempts < 1 {
			return nil, fmt.Errorf("scen: stage %d: iters %d and attempts %d must be positive",
				i, own[i].Iters, own[i].MaxAttempts)
		}
	}
	return &Curriculum{
		Topology: topology, Seed: seed,
		MetaIters: metaIters, StageIters: stageIters,
		stages: own, agentOpts: opts,
	}, nil
}

// Stages returns the validated ladder (defaults applied).
func (c *Curriculum) Stages() []Stage { return append([]Stage(nil), c.stages...) }

// Name implements core.Experiment.
func (c *Curriculum) Name() string { return "curriculum" }

// Phases implements core.Experiment: meta-train, one phase per stage (so
// stage barriers are engine barriers and every stage's events carry its
// name), then aggregate.
func (c *Curriculum) Phases() []core.Phase {
	phases := make([]core.Phase, 0, len(c.stages)+2)
	phases = append(phases, core.Phase{Name: "meta-train", Jobs: 1, Job: c.metaJob})
	for i := range c.stages {
		i := i
		phases = append(phases, core.Phase{
			Name: "stage:" + c.stages[i].Name,
			Jobs: 1,
			Job:  func(rc *core.RunContext, _ int) error { return c.stageJob(rc, i) },
		})
	}
	phases = append(phases, core.Phase{Name: "aggregate", Jobs: 1, Job: func(*core.RunContext, int) error {
		c.report = &CurriculumReport{
			Trace:       append([]PromotionRecord(nil), c.trace...),
			Completed:   !c.failed,
			FailedStage: c.failedStage,
			MetaReward:  c.metaReward,
			Substrate:   c.agent.Substrate(),
		}
		return nil
	}})
	return phases
}

// metaJob trains the end-to-end meta-model for the ladder's kind and
// deploys it under the curriculum topology.
func (c *Curriculum) metaJob(rc *core.RunContext, _ int) error {
	kind := c.stages[0].Spec.Kind
	meta := env.MetaForKind(kind, c.Seed+1000)
	spec := nn.NavNetSpec()
	opts, err := transfer.MetaOptions(c.Seed+1, c.MetaIters, c.agentOpts...)
	if err != nil {
		return err
	}
	deployOpts, err := transfer.OnlineOptions(c.Seed+2, c.StageIters, c.agentOpts...)
	if err != nil {
		return err
	}
	snap, tracker := transfer.MetaTrain(meta, spec, c.MetaIters, opts)
	c.metaReward = tracker.CumulativeReward()
	agent, err := transfer.Deploy(snap, spec, c.Topology, deployOpts)
	if err != nil {
		return fmt.Errorf("scen: deploying curriculum meta-model: %w", err)
	}
	c.agent = agent
	rc.Emit(core.Event{
		Env: meta.Name, Config: nn.E2E,
		Iteration: c.MetaIters, Reward: c.metaReward,
	})
	return nil
}

// stageJob runs stage i: up to MaxAttempts online-learning rounds on fresh
// worlds of the stage family, each followed by the promotion check. A stage
// after a failed one records nothing and returns immediately.
func (c *Curriculum) stageJob(rc *core.RunContext, i int) error {
	if c.failed {
		return nil
	}
	st := c.stages[i]
	for attempt := 0; attempt < st.MaxAttempts; attempt++ {
		if err := rc.Context().Err(); err != nil {
			return err
		}
		// Fresh member world per attempt: same family, new layout. The
		// seed depends only on the curriculum seed and the (stage,
		// attempt) indices, never on earlier outcomes.
		seed := c.Seed + 10000*int64(i+1) + 101*int64(attempt)
		w, err := Generate(st.Spec, seed)
		if err != nil {
			return fmt.Errorf("scen: stage %q: %w", st.Name, err)
		}
		loop, _ := transfer.BuildOnlineLoop(c.agent, w, nn.NavNetSpec(), c.Topology, st.Iters, seed+7700)
		if _, err := loop.Run(rc.Context(), st.Iters); err != nil {
			return err
		}
		reward := loop.Tracker.CumulativeReward()
		sfd := smoothedSFD(loop.Tracker, w.DFrame)
		promoted := reward >= st.PromoteReward && sfd >= st.PromoteSFD
		c.trace = append(c.trace, PromotionRecord{
			Stage: st.Name, Attempt: attempt, Iters: st.Iters,
			Reward: reward, SFD: sfd, Promoted: promoted,
		})
		rc.Emit(core.Event{
			Env: w.Name, Config: c.Topology,
			Iteration: st.Iters, Reward: reward,
		})
		if promoted {
			return nil
		}
	}
	c.failed = true
	c.failedStage = st.Name
	return nil
}

// Report returns the aggregated outcome once Run finished, nil before.
func (c *Curriculum) Report() *CurriculumReport { return c.report }

// Trace returns the promotion trace recorded so far.
func (c *Curriculum) Trace() []PromotionRecord { return append([]PromotionRecord(nil), c.trace...) }

// smoothedSFD is the bounded distance-per-crash estimate over a training
// round: distance flown (steps x frame distance) / (crashes + 1). Like the
// flight driver's evaluateSFD it stays finite and comparable when a good
// policy never crashes, and approaches the raw SFD asymptotically.
func smoothedSFD(t *metrics.FlightTracker, dframe float64) float64 {
	return float64(t.Steps()) * dframe / float64(t.Crashes()+1)
}
