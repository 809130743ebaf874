package qnn

import (
	"fmt"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Backend is the nn.Backend over the int16 engine with nothing trainable:
// the float network is Compiled once, and every Infer runs the walk the
// quant-train backend trains through, entirely in the accelerator's integer
// arithmetic (a lone frame is the batch of one of InferBatch's kernels). The
// Q-values it returns are the dequantized output words, so the greedy argmax
// is exactly the decision the deployed PE datapath would take — including
// the near-tie flips the 16-bit quantization introduces.
//
// Cost model: the quantized network is the artifact stored in the STT-MRAM
// stack, so each inference is charged one full weight stream from the stack
// at Table 1 read timing and energy, recorded against the backend's ledger.
type Backend struct {
	net *Network
	// mram prices the per-inference weight stream.
	mram   *mem.Device
	ledger *mem.EnergyLedger
	cost   nn.BackendCost
	// weightBits is the read traffic of one inference.
	weightBits int64
}

// NewBackend compiles a trained float network into the int16 engine with
// the default formats (Q2.13 weights, Q7.8 activations).
func NewBackend(src *nn.Network) (*Backend, error) {
	qnet, err := Compile(src, Options{})
	if err != nil {
		return nil, err
	}
	return &Backend{
		net:        qnet,
		mram:       mem.STTMRAM(),
		ledger:     mem.NewCompactLedger(),
		weightBits: qnet.WeightBits(),
	}, nil
}

// Name implements nn.Backend.
func (b *Backend) Name() string { return "quant" }

// Infer implements nn.Backend: quantize the observation, run the walk as a
// batch of one, dequantize the Q-value words. The returned slice is reused
// by the next call; a lone frame allocates nothing in steady state.
func (b *Backend) Infer(obs *tensor.Tensor) []float32 {
	return b.charge(b.net.forward(obs.Data(), 1, obsShape(obs)), 1)
}

// InferBatch implements nn.BatchInferrer: one integer pass — one kernel call
// per layer for the B stacked observations — with every row bit-identical to
// the corresponding single-sample Infer, dequantized into the reusable
// output slice.
//
// The energy model is where batching pays beyond throughput: the stack
// streams each layer's weights once for the whole batch, so the ledger is
// charged one weight stream per InferBatch call instead of one per request —
// the amortized weight-reuse regime — and the per-request modeled energy and
// weight-stream latency fall as 1/B.
func (b *Backend) InferBatch(batch *tensor.Tensor) []float32 {
	sh := batch.Shape()
	if len(sh) != 4 {
		panic(fmt.Sprintf("qnn: InferBatch expects a (B, C, H, W) batch, got %v", sh))
	}
	return b.charge(b.net.forward(batch.Data(), sh[0], [3]int{sh[1], sh[2], sh[3]}), sh[0])
}

// charge is the tail Infer and InferBatch share: one weight stream for the
// pass, rows inferences.
func (b *Backend) charge(q []float32, rows int) []float32 {
	rec := b.ledger.Record(b.mram, mem.Read, b.weightBits)
	b.cost.Inferences += int64(rows)
	b.cost.EnergyMJ += rec.PJ / 1e9
	b.cost.LatencyMS += rec.TimeNS / 1e6
	return q
}

// Cost implements nn.CostReporter.
func (b *Backend) Cost() nn.BackendCost { return b.cost }

// Ledger exposes the backend's weight-stream ledger (totals only).
func (b *Backend) Ledger() *mem.EnergyLedger { return b.ledger }

func init() {
	if err := nn.RegisterBackend("quant", func(net *nn.Network, _ nn.ArchSpec, _ nn.Config) (nn.Backend, error) {
		return NewBackend(net)
	}); err != nil {
		panic(err)
	}
}
