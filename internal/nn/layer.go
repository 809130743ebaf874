// Package nn is a from-scratch CNN library implementing the networks and the
// training procedure of the paper: a modified AlexNet (5 conv + 5 FC layers,
// Fig. 3(a)) trained by backpropagation over either the whole network (E2E)
// or only the last few fully-connected layers (the TL configurations L2, L3
// and L4 of Fig. 3(b)). Every layer processes a minibatch of B stacked samples
// with one GEMM (batch.go); a single sample is the batch of one. Gradients are
// accumulated over the batch in sample order and applied in a single update
// step, mirroring the accelerator's "sum of weight and bias gradients"
// scratchpad (Section V).
package nn

import (
	"math"
	"math/rand"

	"dronerl/internal/tensor"
)

// Param is a learnable tensor together with its gradient accumulator.
// Whoever writes W calls MarkChanged afterwards: layers keep derived layouts
// of W (Dense's transpose) that are rebuilt only when the counter has moved.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
	gen  uint64
}

// MarkChanged records that W's contents were written.
func (p *Param) MarkChanged() { p.gen++ }

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// Layer is one stage of the network, processing B stacked samples per call
// (leading batch dimension, NCHW for spatial tensors). There is one
// implementation of each layer's arithmetic: a single sample runs through the
// same methods as a batch of one (Network.Forward). The contracts every layer
// keeps are stated in batch.go's header.
type Layer interface {
	// Name identifies the layer, e.g. "CONV1" or "FC3".
	Name() string
	// ForwardBatch computes the layer output for a batch-major input and
	// caches whatever the subsequent BackwardBatch needs. The result is owned
	// by the layer's workspace arena and stays valid only until the layer's
	// next ForwardBatch.
	ForwardBatch(in *tensor.Tensor) *tensor.Tensor
	// BackwardBatch consumes the gradient w.r.t. the latest ForwardBatch's
	// output, accumulates parameter gradients in sample order, and returns
	// the gradient w.r.t. the input (arena-owned like the forward result).
	// If needInputGrad is false the layer may skip computing the returned
	// gradient (backpropagation stops below the last trainable layer). It
	// panics, naming the layer, when no ForwardBatch preceded it or when the
	// gradient's shape is not that forward pass's output shape.
	BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// BatchLayer is Layer under the name the benchmark harness type-asserts.
type BatchLayer = Layer

// Conv2D is a 2-D convolution over NCHW tensors. Both passes are GEMMs over
// the input's stride-phase planes (tensor.ConvInto, tensor.ConvBackward) —
// the paper's GEMM formulation of CONV layers on the PE array (Section V.B)
// without its im2col expansion.
type Conv2D struct {
	LayerName           string
	InC, OutC           int
	KH, KW, Stride, Pad int
	Weight, Bias        *Param

	// ws holds the stride-phase planes of the latest ForwardBatch's input,
	// which BackwardBatch reads in its place, the tap-offset table and the
	// backward's gradient panels; bArena the output. bOut is the latest
	// ForwardBatch's output, whose shape the gradient must have.
	ws     tensor.ConvScratch
	bArena tensor.Arena
	bOut   *tensor.Tensor
}

// NewConv2D creates a convolution layer with zeroed parameters.
func NewConv2D(name string, inC, outC, kh, kw, stride, pad int) *Conv2D {
	return &Conv2D{
		LayerName: name, InC: inC, OutC: outC,
		KH: kh, KW: kw, Stride: stride, Pad: pad,
		Weight: newParam(name+".weight", outC, inC*kh*kw),
		Bias:   newParam(name+".bias", outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// WeightCount returns the number of learnable scalars including biases.
func (c *Conv2D) WeightCount() int { return c.Weight.W.Len() + c.Bias.W.Len() }

// Init fills the parameters with He-style Gaussian initialization.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.KH * c.KW)
	c.Weight.W.RandN(rng, math.Sqrt(2/fanIn))
	c.Bias.W.Zero()
	c.Weight.MarkChanged()
	c.Bias.MarkChanged()
}

// Dense is a fully-connected layer y = Wx + b over (B, In) rows.
type Dense struct {
	LayerName string
	In, Out   int
	Weight    *Param
	Bias      *Param

	// wT is the (In x Out) transpose of Weight.W that the forward GEMM
	// multiplies against, wTGen the Weight counter value it was built from and
	// wTBuilds how many times it was built (see weightT).
	wT       *tensor.Tensor
	wTGen    uint64
	wTBuilds int

	// bIn and bOut are the latest ForwardBatch's input (read by
	// BackwardBatch, never by a later forward pass) and output.
	bArena    tensor.Arena
	bIn, bOut *tensor.Tensor
}

// NewDense creates a fully-connected layer with zeroed parameters.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		LayerName: name, In: in, Out: out,
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// WeightCount returns the number of learnable scalars including biases.
// For the paper's FC layers this reproduces the "# weights" column of
// Fig. 3(a): in*out + out.
func (d *Dense) WeightCount() int { return d.In*d.Out + d.Out }

// Init fills the parameters with He-style Gaussian initialization.
func (d *Dense) Init(rng *rand.Rand) {
	d.Weight.W.RandN(rng, math.Sqrt(2/float64(d.In)))
	d.Bias.W.Zero()
	d.Weight.MarkChanged()
	d.Bias.MarkChanged()
}

// weightT returns Weight.W laid out (In x Out), the operand shape that lets
// the forward GEMM run as saxpy updates over Out-wide rows. The layout is
// written once and read until Weight is marked changed — the frozen FC layers
// are never transposed again after the first pass.
func (d *Dense) weightT() *tensor.Tensor {
	if d.wT == nil {
		d.wT = tensor.New(d.In, d.Out)
	} else if d.wTGen == d.Weight.gen {
		return d.wT
	}
	tensor.TransposeInto(d.wT, d.Weight.W)
	d.wTGen = d.Weight.gen
	d.wTBuilds++
	return d.wT
}

// ReLU is the rectifier activation, executed by the comparator units of each
// PE in hardware.
type ReLU struct {
	LayerName string

	bArena tensor.Arena
	bOut   *tensor.Tensor // latest ForwardBatch output; doubles as the mask
}

// NewReLU creates a rectifier layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// MaxPool is a 2-D max-pooling layer over NCHW tensors.
type MaxPool struct {
	LayerName string
	K, Stride int

	bArena  tensor.Arena
	bOut    *tensor.Tensor // latest ForwardBatch output
	bArgmax []int          // flat input index of each output's maximum
	bShape  [4]int         // NCHW input shape of the latest ForwardBatch
}

// NewMaxPool creates a max-pooling layer with a square window.
func NewMaxPool(name string, k, stride int) *MaxPool {
	return &MaxPool{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// Flatten reshapes each sample's CHW tensor into a flat vector (the "Flatten"
// stage between CONV5 and FC1 in Fig. 3(a)).
type Flatten struct {
	LayerName string

	// Cached reshape views: a Reshape allocates a header, so a pass reuses the
	// previous view while its source tensor is unchanged.
	bIn, bOut, bGradIn, bGradOut *tensor.Tensor
	bShape                       [4]int
}

// NewFlatten creates a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
