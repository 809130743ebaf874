// Package core couples the algorithm side (environments, Q-learning,
// transfer learning) with the hardware side (the performance model) and
// drives the paper's experiments end to end. Every driver — flight,
// ablations, missions — is an Experiment executed by the unified engine in
// engine.go; cmd/figures and the benchmark harness are thin wrappers over
// this package.
package core

import (
	"fmt"

	"dronerl/internal/env"
	"dronerl/internal/mem"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/report"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// FlightScale sets the iteration budget of the Fig. 10/11 reproduction.
// The paper trains 60k meta iterations on a GPU farm; the scaled NavNet
// (see DESIGN.md) learns the same qualitative behaviour within a few
// thousand.
type FlightScale struct {
	// MetaIters is the meta-environment E2E training budget.
	MetaIters int
	// OnlineIters is the per-test-environment online RL budget.
	OnlineIters int
	// EvalSteps is the greedy evaluation flight length.
	EvalSteps int
	// Seed drives every RNG in the experiment.
	Seed int64
}

// FullScale returns the budget used by cmd/figures for the published
// curves.
func FullScale() FlightScale {
	return FlightScale{MetaIters: 6000, OnlineIters: 3000, EvalSteps: 3600, Seed: 1}
}

// QuickScale returns a CI-sized budget that still exhibits learning.
func QuickScale() FlightScale {
	return FlightScale{MetaIters: 500, OnlineIters: 400, EvalSteps: 400, Seed: 1}
}

// ConfigRun is one (environment, topology) learning run of Fig. 10.
type ConfigRun struct {
	Config nn.Config
	// RewardSeries and ReturnSeries are the Fig. 10 curves.
	RewardSeries, ReturnSeries []float64
	// SFD is the evaluated safe flight distance (metres).
	SFD float64
	// NormalizedSFD is SFD / SFD(E2E) in the same environment (Fig. 11).
	NormalizedSFD float64
	// Crashes during evaluation.
	Crashes int
	// Substrate names what the greedy evaluation flew and the online phase
	// trained on (the first seed's), with both costs summed over the seed
	// repeats.
	rl.Substrate
}

// EnvReport aggregates the four topologies in one test environment.
type EnvReport struct {
	Env  string
	Kind string
	// Scenario is the registry name the environment was built from.
	Scenario string
	Runs     []ConfigRun
	// WorstLiDegradationPct is the largest SFD degradation of any Li
	// topology vs E2E (the percentages annotated in Fig. 11).
	WorstLiDegradationPct float64
}

// Run returns the run for a topology.
func (e EnvReport) Run(cfg nn.Config) (ConfigRun, bool) {
	for _, r := range e.Runs {
		if r.Config == cfg {
			return r, true
		}
	}
	return ConfigRun{}, false
}

// FlightReport is the full Fig. 10 + Fig. 11 reproduction.
type FlightReport struct {
	Scale FlightScale
	Envs  []EnvReport
	// MetaTrackers records the meta-environment training curves, keyed by
	// kind (indoor, outdoor).
	MetaTrackers map[string]*metrics.FlightTracker
	// Energy is the merged per-device traffic ledger of every run's eval
	// backend (WithBackend) and policy publishes, nil when no run had either.
	// Per-run ledgers are merged in run-index order during aggregation, so
	// the totals are deterministic for every worker count.
	Energy *mem.EnergyLedger
}

// BuildEnergyTable renders the per-run evaluation energy as a paper-style
// table: one row per (environment, topology) cell with the backend's
// modeled energy, latency and cycle totals. It returns nil when no run
// reported costs (the float path).
func (r *FlightReport) BuildEnergyTable() *report.Table {
	any := false
	t := report.New("evaluation-phase hardware cost by backend",
		"Environment", "Config", "Backend", "Inferences", "Energy mJ", "Latency ms", "Mcycles")
	for _, e := range r.Envs {
		for _, run := range e.Runs {
			if run.EvalCost.Inferences == 0 {
				continue
			}
			any = true
			t.Addf(e.Env, run.Config.String(), run.Backend,
				int(run.EvalCost.Inferences), run.EvalCost.EnergyMJ,
				run.EvalCost.LatencyMS, float64(run.EvalCost.Cycles)/1e6)
		}
	}
	if !any {
		return nil
	}
	return t
}

// FlightExperiment reproduces Fig. 10 and Fig. 11 over an arbitrary
// scenario list: meta-train one model per environment kind, deploy it into
// each scenario's world under every topology, learn online, then evaluate
// greedily. It implements Experiment; execute it with Run and read the
// result from Report.
type FlightExperiment struct {
	scale FlightScale
	// agentOpts are applied over the paper's per-phase recipes
	// (transfer.MetaOptions/OnlineOptions); with none the experiment runs
	// the paper pipeline exactly.
	agentOpts []rl.Option

	// Planning state, fixed at construction: the selected scenarios, each
	// scenario's probed world name and kind, and the distinct kinds in
	// first-appearance order (the meta-training jobs).
	scenarios []env.Scenario
	envNames  []string
	envKinds  []string
	kinds     []string

	snaps    []*nn.Snapshot
	trackers []*metrics.FlightTracker
	cells    []ConfigRun
	// ledgers holds each run's private evaluation energy ledger (nil
	// entries for the float path). One ledger per run keeps the parallel
	// engine race-free; aggregation merges them in index order.
	ledgers []*mem.EnergyLedger
	report  *FlightReport
}

// NewFlightExperiment plans a flight experiment over the named scenarios
// (the paper's four test environments when none are given). It fails on a
// name missing from the scenario registry.
func NewFlightExperiment(scale FlightScale, scenarioNames ...string) (*FlightExperiment, error) {
	if len(scenarioNames) == 0 {
		scenarioNames = env.DefaultFlightScenarios()
	}
	e := &FlightExperiment{scale: scale}
	seen := map[string]bool{}
	for i, name := range scenarioNames {
		s, ok := env.LookupScenario(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown scenario %q (catalog: env.Scenarios)", name)
		}
		// Probe the world once for its display name and kind — the same
		// per-scenario seed derivation every online job uses, so the probe
		// matches what the jobs will fly.
		w := s.Build(scale.Seed + 1 + int64(i))
		e.scenarios = append(e.scenarios, s)
		e.envNames = append(e.envNames, w.Name)
		e.envKinds = append(e.envKinds, w.Kind)
		if !seen[w.Kind] {
			seen[w.Kind] = true
			e.kinds = append(e.kinds, w.Kind)
		}
	}
	return e, nil
}

// SetAgentOverrides installs the agent options every phase applies over its
// training recipe; an invalid combination fails the run. The flight reads
// every agent option; WithSyncEvery without WithActors(n > 1) is refused
// (see CheckOverrides).
func (e *FlightExperiment) SetAgentOverrides(opts ...rl.Option) error {
	if err := CheckOverrides("core: flight", opts, Unread{}); err != nil {
		return err
	}
	e.agentOpts = opts
	return nil
}

// Name implements Experiment.
func (e *FlightExperiment) Name() string { return "flight" }

// Scale returns the experiment's iteration budget.
func (e *FlightExperiment) Scale() FlightScale { return e.scale }

// Report returns the accumulated report; it is nil until a Run of the
// experiment has completed without error.
func (e *FlightExperiment) Report() *FlightReport { return e.report }

// Phases implements Experiment: meta-train one model per kind, fan the
// (scenario, topology, repeat) online runs, then aggregate.
func (e *FlightExperiment) Phases() []Phase {
	spec := nn.NavNetSpec()
	scale := e.scale
	nc, nr := len(nn.Configs), seedRepeats
	e.snaps = make([]*nn.Snapshot, len(e.kinds))
	e.trackers = make([]*metrics.FlightTracker, len(e.kinds))
	e.cells = make([]ConfigRun, len(e.scenarios)*nc*nr)
	e.ledgers = make([]*mem.EnergyLedger, len(e.cells))
	e.report = nil

	metaPhase := Phase{
		Name: "meta-train",
		Jobs: len(e.kinds),
		Job: func(rc *RunContext, k int) error {
			kind := e.kinds[k]
			meta := env.MetaForKind(kind, scale.Seed+metaSeedOffset(kind))
			opts, err := transfer.MetaOptions(scale.Seed+1, scale.MetaIters, e.agentOpts...)
			if err != nil {
				return err
			}
			e.snaps[k], e.trackers[k] = transfer.MetaTrain(meta, spec, scale.MetaIters, opts)
			rc.Emit(Event{
				Env: meta.Name, Config: nn.E2E, Run: k,
				Iteration: scale.MetaIters,
				Reward:    e.trackers[k].CumulativeReward(),
			})
			return nil
		},
	}

	onlinePhase := Phase{
		Name: "online",
		Jobs: len(e.cells),
		Job: func(rc *RunContext, idx int) error {
			i := idx / (nc * nr)
			ci := idx / nr % nc
			r := idx % nr
			kind := e.envKinds[i]
			cfg := nn.Configs[ci]
			// Fresh world per run so every topology faces the same layout.
			w := e.scenarios[i].Build(scale.Seed + 1 + int64(i))
			opts, err := transfer.OnlineOptions(scale.Seed+10+int64(cfg)+int64(100*r),
				scale.OnlineIters, e.agentOpts...)
			if err != nil {
				return err
			}
			agent, err := transfer.Deploy(e.snaps[e.kindIndex(kind)], spec, cfg, opts)
			if err != nil {
				return fmt.Errorf("core: %s under %v: %w", w.Name, cfg, err)
			}
			w.Seed(scale.Seed + int64(31*r+i))
			w.Spawn()
			// The online phase runs through the actor/learner pipeline,
			// under the engine's cancellation context. With the default
			// single actor this is the deterministic serial schedule,
			// bit-identical to the historical trainer loop; with
			// rl.WithActors(n) the run fans out over n cloned worlds, and
			// every policy publish charges its snapshot write to the run's
			// energy ledger.
			loop, publishLedger := transfer.BuildOnlineLoop(agent, w, spec, cfg,
				scale.OnlineIters, scale.Seed+int64(31*r+i)+7700)
			stats, err := loop.Run(rc.Context(), scale.OnlineIters)
			if err != nil {
				return fmt.Errorf("core: %s under %v: %w", w.Name, cfg, err)
			}
			training := loop.Tracker
			// Hand off to the greedy evaluation phase: from here on the
			// trained policy runs on the selected inference backend (the
			// deployment substrate), not necessarily the float trainer.
			if err := agent.HandOff(); err != nil {
				return fmt.Errorf("core: %s under %v: %w", w.Name, cfg, err)
			}
			sfd, crashes := evaluateSFD(w, agent, scale, i+100*r)
			e.cells[idx] = ConfigRun{
				Config:       cfg,
				RewardSeries: training.RewardSeries(),
				ReturnSeries: training.ReturnSeries(),
				SFD:          sfd,
				Crashes:      crashes,
				Substrate:    agent.Substrate(),
			}
			if agent.Options().EvalBackend != "" {
				e.ledgers[idx] = backendLedger(agent.Policy())
			}
			if publishLedger != nil {
				if e.ledgers[idx] == nil {
					e.ledgers[idx] = publishLedger
				} else {
					// Keep the backend's private ledger intact (its
					// breakdown cross-checks depend on it) and merge both
					// into a fresh per-run ledger.
					merged := mem.NewLedger()
					merged.Merge(e.ledgers[idx])
					merged.Merge(publishLedger)
					e.ledgers[idx] = merged
				}
			}
			rc.Emit(Event{
				Env: w.Name, Config: cfg, Run: idx,
				Iteration: scale.OnlineIters,
				Reward:    training.CumulativeReward(),
				Publishes: stats.Publishes,
			})
			cost := e.cells[idx].EvalCost
			rc.Emit(Event{
				Phase: "evaluate",
				Env:   w.Name, Config: cfg, Run: idx,
				Iteration: scale.EvalSteps,
				Reward:    sfd,
				Backend:   e.cells[idx].Backend,
				EnergyMJ:  cost.EnergyMJ,
				LatencyMS: cost.LatencyMS,
				Cycles:    cost.Cycles,
			})
			return nil
		},
	}

	aggregatePhase := Phase{
		Name: "aggregate",
		Jobs: 1,
		Job: func(rc *RunContext, _ int) error {
			e.report = e.aggregate()
			return nil
		},
	}

	return []Phase{metaPhase, onlinePhase, aggregatePhase}
}

// metaSeedOffset maps a kind to its meta-environment seed offset. The
// offset depends on kind identity alone — never on the kind's position in
// the scenario list — so a scenario's results are stable across experiments
// regardless of which other scenarios ride along. The indoor/outdoor
// constants are the historical ones, keeping the default quartet
// bit-identical to the pre-registry engine.
func metaSeedOffset(kind string) int64 {
	if kind == "outdoor" {
		return 200
	}
	return 100
}

// kindIndex returns the meta-model slot for a kind.
func (e *FlightExperiment) kindIndex(kind string) int {
	for k, v := range e.kinds {
		if v == kind {
			return k
		}
	}
	panic("core: kind " + kind + " missing from flight plan")
}

// aggregate folds the completed cells into the Fig. 10/11 report.
func (e *FlightExperiment) aggregate() *FlightReport {
	scale := e.scale
	nc, nr := len(nn.Configs), seedRepeats
	rep := &FlightReport{Scale: scale, MetaTrackers: map[string]*metrics.FlightTracker{}}
	for k, kind := range e.kinds {
		rep.MetaTrackers[kind] = e.trackers[k]
	}
	for i := range e.scenarios {
		er := EnvReport{Env: e.envNames[i], Kind: e.envKinds[i], Scenario: e.scenarios[i].Name}
		var e2eSFD float64
		for ci, cfg := range nn.Configs {
			// Average the SFD over the seed repeats; keep the first
			// seed's learning curves for the Fig. 10 plot.
			agg := ConfigRun{Config: cfg}
			for r := 0; r < seedRepeats; r++ {
				c := e.cells[(i*nc+ci)*nr+r]
				if r == 0 {
					agg.RewardSeries = c.RewardSeries
					agg.ReturnSeries = c.ReturnSeries
				}
				agg.SFD += c.SFD
				agg.Crashes += c.Crashes
				agg.Substrate.Add(c.Substrate)
			}
			agg.SFD /= seedRepeats
			if cfg == nn.E2E {
				e2eSFD = agg.SFD
			}
			er.Runs = append(er.Runs, agg)
		}
		// Normalize against E2E (Fig. 11).
		for j := range er.Runs {
			if e2eSFD > 0 {
				er.Runs[j].NormalizedSFD = er.Runs[j].SFD / e2eSFD
			}
			if er.Runs[j].Config != nn.E2E {
				if deg := 100 * (1 - er.Runs[j].NormalizedSFD); deg > er.WorstLiDegradationPct {
					er.WorstLiDegradationPct = deg
				}
			}
		}
		rep.Envs = append(rep.Envs, er)
	}
	// Merge the per-run ledgers in run-index order: deterministic totals
	// for every worker count, no locking on the per-access hot path.
	for _, l := range e.ledgers {
		if l == nil {
			continue
		}
		if rep.Energy == nil {
			rep.Energy = mem.NewLedger()
		}
		rep.Energy.Merge(l)
	}
	return rep
}

// seedRepeats is the number of independent agent seeds averaged per
// (environment, topology) cell; the paper's single curves come from far
// longer runs, so averaging substitutes for length.
const seedRepeats = 5

// evalWorlds is the number of independent evaluation flights (same layout,
// fresh spawn sequences) aggregated into one safe-flight-distance estimate.
const evalWorlds = 3

// evaluateSFD flies the trained agent greedily over several independent
// spawn sequences of the same environment and returns the smoothed
// distance-per-crash estimate, total flown distance / (crashes + 1).
//
// The paper's raw SFD (mean distance between crashes) is heavy-tailed for
// good policies: a single censored no-crash flight dominates the estimate.
// The +1-smoothed ratio over a fixed total flight length is bounded and
// comparable across topologies; it equals the raw SFD asymptotically.
func evaluateSFD(w *env.World, agent *rl.Agent, scale FlightScale, envIdx int) (float64, int) {
	steps := scale.EvalSteps / evalWorlds
	if steps < 1 {
		steps = 1
	}
	var dist float64
	crashes := 0
	for e := 0; e < evalWorlds; e++ {
		// Same layout, independent spawn stream.
		w.Seed(scale.Seed + int64(1000*(e+1)+envIdx))
		w.Spawn()
		tr := rl.Evaluate(w, agent, steps)
		dist += float64(float64(tr.Steps()) * w.DFrame)
		crashes += tr.Crashes()
	}
	return dist / float64(crashes+1), crashes
}
