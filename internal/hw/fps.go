package hw

import (
	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// This file regenerates Fig. 13 (sustainable FPS per topology and batch
// size; latency/energy summary) and Fig. 1 (minimum FPS for obstacle
// avoidance as a function of velocity and clutter).

// IterationCost describes one online-learning frame under a topology: the
// drone must run inference on the frame (to act), push the frame through
// forward + backward for training, and amortize the batched weight update.
type IterationCost struct {
	Config nn.Config
	Batch  int
	// InferenceMS, TrainForwardMS, TrainBackwardMS, UpdateMS are the
	// per-frame components in milliseconds (UpdateMS already divided by
	// the batch size).
	InferenceMS, TrainForwardMS, TrainBackwardMS, UpdateMS float64
}

// TotalMS returns the per-frame wall time.
func (c IterationCost) TotalMS() float64 {
	return c.InferenceMS + c.TrainForwardMS + c.TrainBackwardMS + c.UpdateMS
}

// FPS returns the sustainable frame rate.
func (c IterationCost) FPS() float64 { return 1000 / c.TotalMS() }

// Iteration prices one training frame for a topology and batch size.
// NVM write-back costs are part of the per-layer backward costs (as in
// Fig. 12(b)); the explicit update term covers the SRAM-resident layers'
// read-modify-write of weights against the accumulated gradient sums,
// amortized over the batch.
func (m *Model) Iteration(cfg nn.Config, batch int) IterationCost {
	if batch <= 0 {
		batch = 1
	}
	fwd := m.ForwardLatencyMS()
	bwd := m.BackwardLatencyMS(cfg)
	// Update pass: read weight + gradient sum, write weight, through the
	// SRAM's wide rows, for every trained word the stack does not keep.
	sramBits := int64(m.Arch.TrainedWeights(cfg))*m.wordBits() - m.StackTraffic(cfg).UpdateBits
	upd := m.SRAM.AccessTimeNS(mem.Write, 3*sramBits) / 1e6 / float64(batch)
	return IterationCost{
		Config: cfg, Batch: batch,
		InferenceMS: fwd, TrainForwardMS: fwd, TrainBackwardMS: bwd,
		UpdateMS: upd,
	}
}

func (m *Model) layerWeightWords(name string) int64 {
	for _, f := range m.Arch.FCs {
		if f.Name == name {
			return int64(f.Weights())
		}
	}
	for _, c := range m.Arch.Convs {
		if c.Name == name {
			return int64(c.Weights())
		}
	}
	return 0
}

// FPSPoint is one bar of Fig. 13(a).
type FPSPoint struct {
	Config nn.Config
	Batch  int
	FPS    float64
}

// FPSTable regenerates Fig. 13(a): sustainable FPS for each topology at
// batch sizes 4, 8 and 16.
func (m *Model) FPSTable() []FPSPoint {
	var out []FPSPoint
	for _, cfg := range nn.Configs {
		for _, b := range []int{4, 8, 16} {
			out = append(out, FPSPoint{Config: cfg, Batch: b, FPS: m.Iteration(cfg, b).FPS()})
		}
	}
	return out
}

// Summary is one bar pair of Fig. 13(b): per-training-iteration processing
// latency and dissipated energy for a topology (forward + backward of one
// image, the quantity the paper's 79.4%/83.45% reductions refer to).
type Summary struct {
	Config    nn.Config
	LatencyMS float64
	EnergyMJ  float64
}

// SummaryTable regenerates Fig. 13(b).
func (m *Model) SummaryTable() []Summary {
	var out []Summary
	for _, cfg := range nn.Configs {
		out = append(out, Summary{
			Config:    cfg,
			LatencyMS: m.ForwardLatencyMS() + m.BackwardLatencyMS(cfg),
			EnergyMJ:  m.ForwardEnergyMJ() + m.BackwardEnergyMJ(cfg),
		})
	}
	return out
}

// Reductions returns the latency and energy reductions (in percent) of the
// given topology relative to the E2E baseline — the paper's headline
// numbers for L4.
func (m *Model) Reductions(cfg nn.Config) (latencyPct, energyPct float64) {
	base := Summary{
		Config:    nn.E2E,
		LatencyMS: m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.E2E),
		EnergyMJ:  m.ForwardEnergyMJ() + m.BackwardEnergyMJ(nn.E2E),
	}
	own := Summary{
		LatencyMS: m.ForwardLatencyMS() + m.BackwardLatencyMS(cfg),
		EnergyMJ:  m.ForwardEnergyMJ() + m.BackwardEnergyMJ(cfg),
	}
	return 100 * (1 - own.LatencyMS/base.LatencyMS), 100 * (1 - own.EnergyMJ/base.EnergyMJ)
}

// EnergyPerFrameMJ returns the full per-frame energy (inference + training
// share + camera-link transfer), the quantity behind the abstract's
// "83.4% lower energy per image frame".
func (m *Model) EnergyPerFrameMJ(cfg nn.Config) float64 {
	frame := mem.FrameBytes(m.Arch.InputH, m.Arch.InputC)
	link := m.Link.TransferEnergyPJ(frame) / 1e9
	return 2*m.ForwardEnergyMJ() + m.BackwardEnergyMJ(cfg) + link
}

// MinFPSRow is one row of the Fig. 1 minimum-FPS table.
type MinFPSRow struct {
	Env      string
	DMin     float64
	Velocity float64
	MinFPS   float64
}

// MinFPSTable regenerates Fig. 1(b,c): for each of the six environment
// classes and each velocity in {2.5, 5, 7.5, 10} m/s, the minimum frame
// rate for obstacle avoidance, fps = v / d_min.
func MinFPSTable(envs []struct {
	Name string
	DMin float64
}) []MinFPSRow {
	var out []MinFPSRow
	for _, e := range envs {
		for _, v := range []float64{2.5, 5, 7.5, 10} {
			out = append(out, MinFPSRow{Env: e.Name, DMin: e.DMin, Velocity: v, MinFPS: v / e.DMin})
		}
	}
	return out
}

// MaxVelocity inverts the Fig. 1 relation: the fastest safe flight speed a
// topology sustains in an environment of the given clutter is
// v = fps x d_min. The paper's ">3X increase in the velocity of the drone"
// follows from the L4-vs-E2E FPS gap.
func (m *Model) MaxVelocity(cfg nn.Config, batch int, dmin float64) float64 {
	return m.Iteration(cfg, batch).FPS() * dmin
}
