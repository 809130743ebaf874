// Package dronerl reproduces "Transfer and Online Reinforcement Learning in
// STT-MRAM Based Embedded Systems for Autonomous Drones" (Yoon, Anwar,
// Rakshit, Raychowdhury — DATE 2019).
//
// The library has two coupled halves:
//
//   - The algorithm: a CNN Q-learning agent for camera-based drone
//     navigation, trained by transfer learning on meta-environments and
//     online RL over only the last few fully-connected layers
//     (internal/nn, internal/rl, internal/env, internal/transfer).
//   - The hardware: a 32x32 systolic PE array with an on-die SRAM buffer
//     and a 3D-stacked STT-MRAM holding the frozen weights. Its 16-bit
//     datapath is the integer engine (internal/qnn); an analytical
//     latency/energy model prices it (internal/hw, internal/mem).
//
// Experiments compose from four first-class concepts (see api.go): a
// scenario catalog (Scenarios, RegisterScenario), one entry point per
// experiment (Flight, Missions, OnlineMissions, Swarm, Curriculum) and per
// agent (Agent, Deploy), each taking only the options it reads (WithSeed,
// WithGamma, ...: one passed to an entry point that cannot read it does
// not compile), a compute backend the trained policy deploys onto for
// greedy evaluation (WithBackend: Float, Quant or Systolic, the last
// charging per-run energy ledgers from the hardware model), and a unified
// context-aware engine (Run, WithWorkers, WithProgress) that executes any
// Experiment with deterministic, worker-count-independent results. See
// README.md for a tour, the MIGRATION section there for the removed
// one-shot entry points, and EXPERIMENTS.md for the paper-vs-model
// comparison.
package dronerl

import (
	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// Training topologies (re-exported from internal/nn): E2E trains the whole
// network; L2/L3/L4 train the last 2/3/4 FC layers on a transferred model.
const (
	E2E = nn.E2E
	L2  = nn.L2
	L3  = nn.L3
	L4  = nn.L4
)

// Config selects a training topology.
type Config = nn.Config

// FlightScale sets the iteration budget of a flight-learning experiment.
type FlightScale = core.FlightScale

// FlightReport is the Fig. 10/11 reproduction output.
type FlightReport = core.FlightReport

// HardwareReport bundles the Fig. 1/4/5/12/13 artifacts.
type HardwareReport = core.HardwareReport

// FullScale returns the figure-quality iteration budget.
func FullScale() FlightScale { return core.FullScale() }

// QuickScale returns a CI-sized iteration budget.
func QuickScale() FlightScale { return core.QuickScale() }

// RunHardwareExperiment evaluates the hardware performance model,
// regenerating the per-layer cost tables (Fig. 12), the FPS and summary
// charts (Fig. 13), the minimum-FPS table (Fig. 1) and the memory mapping
// (Fig. 5).
func RunHardwareExperiment() *HardwareReport {
	return core.RunHardwareExperiment()
}

// NewHardwareModel returns the analytical model of the paper's platform
// for custom studies (sweeps over batch size, SRAM capacity, devices).
func NewHardwareModel() *hw.Model { return hw.NewModel() }

// MetaTrain trains an end-to-end model on the meta-environment matching
// the given world's kind and returns the transferable snapshot.
func MetaTrain(test *env.World, iterations int, opts rl.Options) *nn.Snapshot {
	meta := env.MetaFor(test, opts.Seed+1000)
	snap, _ := transfer.MetaTrain(meta, nn.NavNetSpec(), iterations, opts)
	return snap
}
