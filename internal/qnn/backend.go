package qnn

import (
	"fmt"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Backend is the nn.Backend over the int16 engine with nothing trainable:
// the float network is Compiled once, and every Infer runs the walk the
// training engine trains through, entirely in the accelerator's integer
// arithmetic (a lone frame is the batch of one of InferBatch's kernels). The
// Q-values it returns are the dequantized output words, so the greedy argmax
// is exactly the decision the deployed PE datapath would take — including
// the near-tie flips the 16-bit quantization introduces. It computes words
// only: internal/hw prices them ("quant", "systolic").
type Backend struct {
	net *Network
}

// NewBackend compiles a trained float network into the int16 engine with
// the default formats (Q2.13 weights, Q7.8 activations).
func NewBackend(src *nn.Network) (*Backend, error) {
	qnet, err := Compile(src, Options{})
	if err != nil {
		return nil, err
	}
	return &Backend{net: qnet}, nil
}

// Name implements nn.Backend.
func (b *Backend) Name() string { return "quant" }

// Infer implements nn.Backend: quantize the observation, run the walk as a
// batch of one, dequantize the Q-value words. The returned slice is reused
// by the next call; a lone frame allocates nothing in steady state.
func (b *Backend) Infer(obs *tensor.Tensor) []float32 {
	return b.net.forward(obs.Data(), 1, obsShape(obs))
}

// InferBatch implements nn.BatchInferrer: one integer pass — one kernel call
// per layer for the B stacked observations — with every row bit-identical to
// the corresponding single-sample Infer, dequantized into the reusable
// output slice.
func (b *Backend) InferBatch(batch *tensor.Tensor) []float32 {
	sh := batch.Shape()
	if len(sh) != 4 {
		panic(fmt.Sprintf("qnn: InferBatch expects a (B, C, H, W) batch, got %v", sh))
	}
	return b.net.forward(batch.Data(), sh[0], [3]int{sh[1], sh[2], sh[3]})
}
