package core

import (
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/transfer"
)

// Ablations of the design choices DESIGN.md calls out, expressed as
// Experiments on the unified engine.

// RicherMetaResult compares the outdoor-town transfer gap under the
// standard cylinder-dominated outdoor meta-environment against the richer
// one that also contains town-like boxes — the improvement the paper
// proposes for its worst-case environment ("this can be further improved
// by performing TL on richer meta-environments").
type RicherMetaResult struct {
	// TownSFDStandard / TownSFDRich are L3 safe flight distances in the
	// town after transfer from each meta-environment.
	TownSFDStandard, TownSFDRich float64
	// ImprovementPct is the relative SFD gain from the richer meta.
	ImprovementPct float64
}

// RicherMetaExperiment trains two meta-models (standard and rich), then
// deploys both to the outdoor town under L3 — the topology whose frozen
// conv features carry the transfer — and compares evaluated SFD averaged
// over seedRepeats agents.
type RicherMetaExperiment struct {
	scale FlightScale

	snaps  []*nn.Snapshot
	sfds   []float64
	result RicherMetaResult
}

// NewRicherMetaExperiment plans the richer-meta ablation.
func NewRicherMetaExperiment(scale FlightScale) *RicherMetaExperiment {
	return &RicherMetaExperiment{scale: scale}
}

// Name implements Experiment.
func (e *RicherMetaExperiment) Name() string { return "richer-meta-ablation" }

// Result returns the comparison; valid once a Run has completed.
func (e *RicherMetaExperiment) Result() RicherMetaResult { return e.result }

// metaScenarios are the two outdoor meta-environments compared, in
// (standard, rich) order.
var richerMetaScenarios = []string{"outdoor-meta", "outdoor-meta-rich"}

// Phases implements Experiment.
func (e *RicherMetaExperiment) Phases() []Phase {
	spec := nn.NavNetSpec()
	scale := e.scale
	e.snaps = make([]*nn.Snapshot, len(richerMetaScenarios))
	e.sfds = make([]float64, len(richerMetaScenarios)*seedRepeats)

	return []Phase{
		{
			Name: "meta-train",
			Jobs: len(richerMetaScenarios),
			Job: func(rc *RunContext, k int) error {
				s, _ := env.LookupScenario(richerMetaScenarios[k])
				opts, err := transfer.MetaOptions(scale.Seed+1, scale.MetaIters)
				if err != nil {
					return err
				}
				meta := s.Build(scale.Seed + 200)
				snap, tracker := transfer.MetaTrain(meta, spec, scale.MetaIters, opts)
				e.snaps[k] = snap
				rc.Emit(Event{
					Env: meta.Name, Config: nn.E2E, Run: k,
					Iteration: scale.MetaIters, Reward: tracker.CumulativeReward(),
				})
				return nil
			},
		},
		{
			// One job per (meta, repeat) cell; seeds depend only on the
			// repeat index, mirroring the flight engine's per-job
			// derivation.
			Name: "online",
			Jobs: len(e.sfds),
			Job: func(rc *RunContext, idx int) error {
				k, r := idx/seedRepeats, idx%seedRepeats
				town := env.OutdoorTown(scale.Seed + 4)
				opts, err := transfer.OnlineOptions(scale.Seed+50+int64(r), scale.OnlineIters)
				if err != nil {
					return err
				}
				agent, err := transfer.Deploy(e.snaps[k], spec, nn.L3, opts)
				if err != nil {
					return err
				}
				loop, _ := transfer.BuildOnlineLoop(agent, town, spec, nn.L3, scale.OnlineIters, scale.Seed+7700)
				if _, err := loop.Run(rc.Context(), scale.OnlineIters); err != nil {
					return err
				}
				sfd, _ := evaluateSFD(town, agent, scale, 400+r)
				e.sfds[idx] = sfd
				rc.Emit(Event{
					Env: town.Name, Config: nn.L3, Run: idx,
					Iteration: scale.OnlineIters, Reward: loop.Tracker.CumulativeReward(),
				})
				return nil
			},
		},
		{
			Name: "aggregate",
			Jobs: 1,
			Job: func(rc *RunContext, _ int) error {
				means := make([]float64, len(richerMetaScenarios))
				for k := range means {
					var total float64
					for r := 0; r < seedRepeats; r++ {
						total += e.sfds[k*seedRepeats+r]
					}
					means[k] = total / seedRepeats
				}
				e.result = RicherMetaResult{
					TownSFDStandard: means[0],
					TownSFDRich:     means[1],
				}
				if e.result.TownSFDStandard > 0 {
					e.result.ImprovementPct = 100 * (e.result.TownSFDRich/e.result.TownSFDStandard - 1)
				}
				return nil
			},
		},
	}
}

// StereoAblationResult compares learning with ideal depth against the
// quantized/noisy stereo model, isolating the cost of the paper's
// disparity-based sensing.
type StereoAblationResult struct {
	SFDIdeal, SFDStereo float64
}

// StereoExperiment meta-trains and flies the indoor apartment twice: once
// with ideal ray-cast depth (the *-ideal-depth scenario variants), once
// with the stereo noise model.
type StereoExperiment struct {
	scale  FlightScale
	sfds   []float64
	result StereoAblationResult
}

// NewStereoExperiment plans the stereo-sensing ablation. TestAblationsGolden
// pins it.
func NewStereoExperiment(scale FlightScale) *StereoExperiment {
	return &StereoExperiment{scale: scale}
}

// Name implements Experiment.
func (e *StereoExperiment) Name() string { return "stereo-ablation" }

// Result returns the comparison; valid once a Run has completed.
func (e *StereoExperiment) Result() StereoAblationResult { return e.result }

// Phases implements Experiment: the two arms are independent end-to-end
// pipelines (meta-train, deploy under L3, learn online, evaluate).
func (e *StereoExperiment) Phases() []Phase {
	spec := nn.NavNetSpec()
	scale := e.scale
	e.sfds = make([]float64, 2)
	arms := []struct{ meta, test string }{
		{"indoor-meta-ideal-depth", "indoor-apartment-ideal-depth"}, // ideal depth
		{"indoor-meta", "indoor-apartment"},                         // stereo model
	}

	return []Phase{
		{
			Name: "pipeline",
			Jobs: len(arms),
			Job: func(rc *RunContext, k int) error {
				metaScenario, _ := env.LookupScenario(arms[k].meta)
				testScenario, _ := env.LookupScenario(arms[k].test)
				metaOpts, err := transfer.MetaOptions(scale.Seed+1, scale.MetaIters)
				if err != nil {
					return err
				}
				onlineOpts, err := transfer.OnlineOptions(scale.Seed+2, scale.OnlineIters)
				if err != nil {
					return err
				}
				meta := metaScenario.Build(scale.Seed + 100)
				snap, _ := transfer.MetaTrain(meta, spec, scale.MetaIters, metaOpts)
				world := testScenario.Build(scale.Seed + 1)
				agent, err := transfer.Deploy(snap, spec, nn.L3, onlineOpts)
				if err != nil {
					return err
				}
				loop, _ := transfer.BuildOnlineLoop(agent, world, spec, nn.L3, scale.OnlineIters, scale.Seed+7700)
				if _, err := loop.Run(rc.Context(), scale.OnlineIters); err != nil {
					return err
				}
				e.sfds[k], _ = evaluateSFD(world, agent, scale, 500)
				rc.Emit(Event{
					Env: world.Name, Config: nn.L3, Run: k,
					Iteration: scale.OnlineIters, Reward: loop.Tracker.CumulativeReward(),
				})
				return nil
			},
		},
		{
			Name: "aggregate",
			Jobs: 1,
			Job: func(rc *RunContext, _ int) error {
				e.result = StereoAblationResult{SFDIdeal: e.sfds[0], SFDStereo: e.sfds[1]}
				return nil
			},
		},
	}
}
