package hw

import (
	"fmt"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/systolic"
	"dronerl/internal/tensor"
)

// SystolicBackend is the nn.Backend that prices inference on the paper's
// accelerator. The chip computes on a 16-bit datapath, so its replies are
// the int16 engine's (internal/qnn) dequantized words — bit-equal to the
// "quant" backend — while the analytical performance model prices every
// pass: weight streams from the STT-MRAM stack at Table 1 timing,
// global-buffer broadcast traffic from the row-stationary conv plans and the
// cycle-stepped FC tiles (internal/systolic), and camera-frame transfers,
// all charged to a mem.EnergyLedger at the devices' per-bit energies. Every
// charge is fixed at construction; nothing the engine computes moves it.
//
// Accounting has two mutually consistent views:
//
//   - the ledger: per-device read/write bits, time and energy, one record
//     per device per inference (compact: totals only);
//   - the breakdown: the Fig.-12-style attribution to physical sinks
//     (PE compute, MRAM reads, NVM writes, DDR link) summarized as an
//     EnergyBreakdown, whose memory components are by construction the
//     ledger's device totals.
//
// Inference never writes the stack, so NVMWriteMJ stays identically zero
// until ChargeTrainStep is called under a topology whose trained layers are
// MRAM-resident (the E2E baseline) — the asymmetry the co-design exploits.
type SystolicBackend struct {
	// QuantBackend is the engine, and the price list and ledger every
	// charge below reads: each pass records quant's forward stream.
	QuantBackend
	cfg   nn.Config
	frame Traffic // camera frame per inference

	// Per-inference charges, fixed at construction.
	inferLatencyMS float64
	inferComputeMJ float64 // affine PE power over busy time + SRAM traffic
	inferCycles    int64
	sramReadBits   int64 // GB broadcast traffic per inference
	sramWriteBits  int64 // output writeback per inference

	// Per-batch amortizable share of the inference charges: samples after
	// the first reuse the resident weights (no second stack stream) and
	// overlap their array fill with the previous sample's drain.
	fillDrainCycles int64   // FC tile-pass skew + drain cycles per inference
	mramStreamNS    float64 // stack read time of one full weight stream

	// Per-train-step charges under cfg (one backward propagation); its
	// stack traffic is the price list's backward read and update write.
	trainLatencyMS float64
	trainComputeMJ float64
	trainCycles    int64

	// Accumulated breakdown components (the ledger holds the memory side;
	// compute is not a memory access, so it accumulates here).
	computeMJ float64
	trainOps  int64
}

// NewSystolicBackend compiles a trained network into the int16 engine and
// maps it onto the accelerator model. The spec prices the layers (it must
// describe net's architecture) and cfg fixes which layers are SRAM-resident
// — the trained ones — versus MRAM-resident, which is what decides whether
// training writes the stack.
func NewSystolicBackend(net *nn.Network, spec nn.ArchSpec, cfg nn.Config) (*SystolicBackend, error) {
	quant, err := NewQuantBackend(net, spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("hw: %w", err)
	}
	b := &SystolicBackend{QuantBackend: *quant, cfg: cfg, frame: FrameTraffic(spec)}
	b.priceInference()
	b.priceTrainStep()
	return b, nil
}

// priceInference fixes the per-inference charges from the forward cost
// tables: latency and PE power from the Fig. 12(a) mechanisms, broadcast
// traffic against the global buffer, and — as in Model.Breakdown — each
// layer's energy less its price-list weight stream as compute. FC cycle
// counts come from the cycle-accurate array simulation, conv cycles from
// the broadcast-bound pass latency at the array clock.
func (b *SystolicBackend) priceInference() {
	m := b.model
	arr := systolic.New(m.Array)
	shapes := m.convShapes()
	for i, c := range m.ForwardTable() {
		b.inferLatencyMS += c.LatencyMS
		b.inferComputeMJ += c.EnergyMJ - m.MRAM.EnergyPJ(mem.Read, b.traffic.Forward[i])/1e9
		if i < len(shapes) {
			s := shapes[i]
			b.inferCycles += int64(c.LatencyMS * 1e6 * m.Array.ClockGHz)
			tr := systolic.PlanConv(m.Array, s).Traffic(s)
			b.sramReadBits += (tr.WeightWords + tr.InputWords) * m.wordBits()
			b.sramWriteBits += tr.OutputWords * m.wordBits()
			continue
		}
		f := m.Arch.FCs[i-len(shapes)]
		sim := arr.SimulateFC(f.Out, f.In)
		b.inferCycles += sim.Cycles
		b.fillDrainCycles += sim.FillDrainCycles
		b.sramReadBits += int64(f.In) * m.wordBits()
		b.sramWriteBits += int64(f.Out) * m.wordBits()
	}
	b.mramStreamNS = m.MRAM.AccessTimeNS(mem.Read, b.traffic.ForwardBits)
}

// priceTrainStep fixes the per-backward-propagation charges under the
// backend's topology from the Fig. 12(b) mechanisms, as Model.Breakdown
// does: the price list's backward read and update write are the stack
// traffic, and the remainder of each row's energy is compute.
func (b *SystolicBackend) priceTrainStep() {
	m := b.model
	for i, row := range m.BackwardTable(b.cfg) {
		readMJ := m.MRAM.EnergyPJ(mem.Read, b.traffic.Backward[i]) / 1e9
		writeMJ := m.MRAM.EnergyPJ(mem.Write, b.traffic.Update[i]) / 1e9
		b.trainLatencyMS += row.LatencyMS
		b.trainComputeMJ += row.EnergyMJ - readMJ - writeMJ
		b.trainCycles += int64(row.LatencyMS * 1e6 * m.Array.ClockGHz)
	}
}

// Name implements nn.Backend.
func (b *SystolicBackend) Name() string { return "systolic" }

// Infer implements nn.Backend: the int16 engine's Q-values for one
// observation, with one inference's memory traffic charged to the ledger.
// It is the batch of one of InferBatch, in replies and in charges.
func (b *SystolicBackend) Infer(obs *tensor.Tensor) []float32 {
	q := b.Backend.Infer(obs)
	b.charge(1)
	return q
}

// InferBatch implements nn.BatchInferrer: the int16 engine's batched pass,
// every row bit-identical to the corresponding Infer, priced as one
// pipelined run over the PE array instead of B cold starts. Two charges
// amortize across the batch:
//
//   - the stack streams each layer's weights once for the whole batch (one
//     MRAM read record per InferBatch, not one per sample), and
//   - every sample after the first overlaps its wavefront fill with the
//     previous sample's drain, so the FC tile passes pay their skew and
//     drain cycles once.
//
// Per-sample traffic that genuinely scales with B — global-buffer broadcast,
// output writeback, camera frames, PE compute — is charged B times.
func (b *SystolicBackend) InferBatch(batch *tensor.Tensor) []float32 {
	q := b.Backend.InferBatch(batch)
	b.charge(batch.Dim(0))
	return q
}

// charge records one pipelined run of bsz inferences. Memory energy comes
// from the records themselves — summing the whole ledger per frame would
// walk (and sort) the device map in the hot loop.
func (b *SystolicBackend) charge(bsz int) {
	b.cost.Inferences += int64(bsz)
	pj := b.ledger.Record(b.model.MRAM, mem.Read, b.traffic.ForwardBits).PJ
	pj += b.ledger.Record(b.model.SRAM, mem.Read, int64(bsz)*b.sramReadBits).PJ
	pj += b.ledger.Record(b.model.SRAM, mem.Write, int64(bsz)*b.sramWriteBits).PJ
	pj += b.ledger.Record(b.frame.Device, b.frame.Kind, int64(bsz)*b.frame.Bits).PJ
	b.computeMJ += float64(float64(bsz) * b.inferComputeMJ)
	b.cost.LatencyMS += b.batchLatencyMS(bsz)
	b.cost.Cycles += b.inferCycles + int64(bsz-1)*(b.inferCycles-b.fillDrainCycles)
	b.cost.EnergyMJ += float64(float64(bsz)*b.inferComputeMJ) + pj/1e9
}

// batchLatencyMS is the modeled wall time of a pipelined batch: the first
// sample pays the full cold-start latency, each further sample the marginal
// latency with the weight stream and the array fill/drain already hidden.
func (b *SystolicBackend) batchLatencyMS(bsz int) float64 {
	savedMS := b.mramStreamNS/1e6 + b.model.Array.CyclesToNS(float64(b.fillDrainCycles))/1e6
	marginalMS := b.inferLatencyMS - savedMS
	if marginalMS < 0 {
		marginalMS = 0
	}
	return b.inferLatencyMS + float64(float64(bsz-1)*marginalMS)
}

// ChargeTrainStep charges one backward propagation (the Fig. 12(b) event)
// under the backend's topology: weight re-streams for the trained layers
// and — only when those layers are MRAM-resident, i.e. the E2E baseline —
// the NVM write-back of updated weights. Training forward passes ride on
// the inference accounting.
func (b *SystolicBackend) ChargeTrainStep() {
	pj := b.ledger.Record(b.model.MRAM, mem.Read, b.traffic.BackwardBits).PJ +
		b.ledger.Record(b.model.MRAM, mem.Write, b.traffic.UpdateBits).PJ
	b.computeMJ += b.trainComputeMJ
	b.trainOps++
	b.cost.LatencyMS += b.trainLatencyMS
	b.cost.Cycles += b.trainCycles
	b.cost.EnergyMJ += b.trainComputeMJ + pj/1e9
}

// TrainSteps returns the number of charged backward propagations.
func (b *SystolicBackend) TrainSteps() int64 { return b.trainOps }

// Breakdown attributes everything charged so far to its physical sinks.
// The memory components are the ledger's device totals — MRAM reads and
// writes against the stack, the camera DRAM as the link component — and
// the compute component is the accumulated PE-power and buffer energy, so
// the components sum to the backend's total cost by construction and the
// ledger cross-checks the breakdown record for record.
func (b *SystolicBackend) Breakdown() EnergyBreakdown {
	m := b.model
	mram := b.ledger.Total(m.MRAM.Name)
	return EnergyBreakdown{
		Config:     b.cfg,
		ComputeMJ:  b.computeMJ + b.ledger.Total(m.SRAM.Name).EnergyPJ/1e9,
		MRAMReadMJ: m.MRAM.EnergyPJ(mem.Read, mram.ReadBits) / 1e9,
		NVMWriteMJ: m.MRAM.EnergyPJ(mem.Write, mram.WriteBits) / 1e9,
		LinkMJ:     b.ledger.Total(b.frame.Device.Name).EnergyPJ / 1e9,
	}
}
