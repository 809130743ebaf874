// Package qnn is the deployable integer inference engine: the forward path
// of a trained network executed entirely in the accelerator's 16-bit
// fixed-point arithmetic (internal/fixed) with 32-bit accumulators, rather
// than a float emulation of it.
//
// A float network trained by internal/nn is Compiled once (weights
// quantized into each layer's format) and then evaluated with integer MACs
// only. This is the artifact that would actually be downloaded into the
// STT-MRAM stack: the paper stores "16 bit fixed point" weights (Fig. 4(b))
// and performs inference reads from the stack.
//
// There is one engine: the batched kernels of batch.go. This file holds the
// layer types and the single-sample entry points — Layer.Forward,
// Network.Forward, Greedy — which are the batch of one of those kernels. The
// PE datapath's per-MAC-saturating loops survive as the scalar reference in
// serial_test.go, which the engine is held to word for word on real frames.
package qnn

import (
	"slices"

	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// QTensor is an integer tensor with an associated fixed-point format.
type QTensor struct {
	Shape []int
	Data  fixed.Vec
	Fmt   fixed.Format
}

// Len returns the element count.
func (q QTensor) Len() int { return len(q.Data) }

// Layer is one integer inference stage.
type Layer interface {
	// Name identifies the layer.
	Name() string
	// Forward consumes and produces format-tagged integer tensors: one
	// unbatched sample in, a freshly allocated output (or, for a pure
	// reshape, a view of the input) out.
	Forward(in QTensor) QTensor
	// WeightBits returns the read traffic this layer generates against
	// the weight store, in bits.
	WeightBits() int64
}

// Conv2D is an integer convolution (CHW, square kernel).
type Conv2D struct {
	LayerName           string
	InC, OutC           int
	K, Stride, Pad      int
	W                   fixed.Vec // (outC, inC*k*k) row-major
	B                   fixed.Vec
	WFmt, InFmt, OutFmt fixed.Format

	// Kernel caches (batch.go): the weight image packed for the direct int16
	// convolution, the bias rescaled into OutFmt as the epilogue's row, and
	// the reusable output-shape header.
	direct *tensor.Conv16
	bRow   []int16
	bShape []int
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// WeightBits implements Layer.
func (c *Conv2D) WeightBits() int64 { return int64(len(c.W)+len(c.B)) * 16 }

// Forward implements Layer.
func (c *Conv2D) Forward(in QTensor) QTensor { return batchOfOne(c, in) }

// Dense is an integer fully-connected layer.
type Dense struct {
	LayerName           string
	In, Out             int
	W                   fixed.Vec // (out, in) row-major
	B                   fixed.Vec
	WFmt, InFmt, OutFmt fixed.Format

	// Kernel caches, as on Conv2D; the GEMM reads W re-typed, as is.
	wGemm  []int16
	bRow   []int16
	bShape []int
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// WeightBits implements Layer.
func (d *Dense) WeightBits() int64 { return int64(len(d.W)+len(d.B)) * 16 }

// Forward implements Layer.
func (d *Dense) Forward(in QTensor) QTensor { return batchOfOne(d, in) }

// ReLU is the integer rectifier (a comparator against zero).
type ReLU struct{ LayerName string }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// WeightBits implements Layer.
func (r *ReLU) WeightBits() int64 { return 0 }

// Forward implements Layer. The input is not mutated.
func (r *ReLU) Forward(in QTensor) QTensor { return batchOfOne(r, in) }

// MaxPool is the integer max-pooling layer (comparators only).
type MaxPool struct {
	LayerName string
	K, Stride int

	bShape []int // batched-path output-shape header
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.LayerName }

// WeightBits implements Layer.
func (m *MaxPool) WeightBits() int64 { return 0 }

// Forward implements Layer.
func (m *MaxPool) Forward(in QTensor) QTensor { return batchOfOne(m, in) }

// Flatten reshapes without touching data.
type Flatten struct {
	LayerName string

	bShape []int // batched-path output-shape header
}

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// WeightBits implements Layer.
func (f *Flatten) WeightBits() int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(in QTensor) QTensor { return batchOfOne(f, in) }

// batchOfOne is Layer.Forward for every builtin layer: the unbatched sample
// gains a leading batch dimension of one, runs through the layer's batched
// kernel over a private workspace — so the output is the caller's to keep —
// and loses the dimension again.
func batchOfOne(l batchLayer, in QTensor) QTensor {
	in.Shape = append([]int{1}, in.Shape...)
	out := l.forwardBatch(in, &batchWorkspace{}, 0)
	out.Shape = slices.Clone(out.Shape[1:])
	return out
}

// Network is a compiled integer network.
type Network struct {
	Layers []Layer
	// InFmt is the expected input activation format.
	InFmt fixed.Format

	// ws is the kernels' workspace (batch.go) and one the reusable
	// (1, C, H, W) shape header of a lone frame.
	ws  batchWorkspace
	one []int
}

// Forward quantizes a float CHW image into the input format and runs the
// integer pipeline as a batch of one, returning a private copy of the
// Q-value words and their format.
func (n *Network) Forward(img *tensor.Tensor) (fixed.Vec, fixed.Format) {
	words, f := n.forwardOne(img)
	return slices.Clone(words), f
}

// forwardOne is Forward without the copy: the words alias the workspace and
// stay valid until the network's next pass.
func (n *Network) forwardOne(img *tensor.Tensor) (fixed.Vec, fixed.Format) {
	n.one = append(append(n.one[:0], 1), img.Shape()...)
	return n.forward(img.Data(), n.one)
}

// Greedy returns the argmax action of the integer Q-values.
func (n *Network) Greedy(img *tensor.Tensor) int {
	q, _ := n.forwardOne(img)
	best := 0
	for i, w := range q {
		if w > q[best] {
			best = i
		}
	}
	return best
}

// WeightBits sums the weight-store read traffic of one inference.
func (n *Network) WeightBits() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.WeightBits()
	}
	return total
}

// rescale converts a word from one format to another.
func rescale(w fixed.Word, from, to fixed.Format) fixed.Word {
	return to.FromFloat(from.ToFloat(w))
}
