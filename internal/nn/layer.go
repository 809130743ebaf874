// Package nn is a from-scratch CNN library implementing the networks and the
// training procedure of the paper: a modified AlexNet (5 conv + 5 FC layers,
// Fig. 3(a)) trained by backpropagation over either the whole network (E2E)
// or only the last few fully-connected layers (the TL configurations L2, L3
// and L4 of Fig. 3(b)). Gradients are accumulated over a batch of serially
// processed images and applied in a single update step, mirroring the
// accelerator's "sum of weight and bias gradients" scratchpad (Section V).
package nn

import (
	"fmt"
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

// Layer is one stage of the network. Forward caches whatever it needs for
// the subsequent Backward call; layers process a single sample at a time,
// matching the accelerator's serial per-image dataflow.
type Layer interface {
	// Name identifies the layer, e.g. "CONV1" or "FC3".
	Name() string
	// Forward computes the layer output for one input sample.
	Forward(in *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	// If needInputGrad is false the layer may skip computing the returned
	// gradient (backpropagation stops below the last trainable layer).
	Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Conv2D is a 2-D convolution over CHW tensors, implemented with im2col and
// matrix products — the same GEMM formulation the paper uses for CONV-layer
// backpropagation on the PE array (Section V.B).
type Conv2D struct {
	LayerName              string
	InC, OutC              int
	KH, KW, Stride, Pad    int
	Weight, Bias           *Param
	lastIn                 *tensor.Tensor
	lastCols               *tensor.Tensor
	lastOutH, lastOutW     int
	DisableColsCaching     bool // set to bound memory on very large layers
	lastInH, lastInWidthPx int

	// Batched-path state (see batch.go): reusable workspaces plus the
	// shapes cached between ForwardBatch and BackwardBatch. bColsT is the
	// transposed (colw x B*np) im2col panel of the latest ForwardBatch.
	bArena           tensor.Arena
	bIn, bColsT      *tensor.Tensor
	bB, bOutH, bOutW int
	bInH, bInW       int
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

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 3 || in.Dim(0) != c.InC {
		panic(fmt.Sprintf("nn: %s expects CHW input with C=%d, got %v", c.LayerName, c.InC, in.Shape()))
	}
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	cols := tensor.Im2Col(in, c.KH, c.KW, c.Stride, c.Pad)
	c.lastIn = in
	c.lastInH, c.lastInWidthPx = h, w
	c.lastOutH, c.lastOutW = oh, ow
	if c.DisableColsCaching {
		c.lastCols = nil
	} else {
		c.lastCols = cols
	}
	// GEMM formulation: out (OutC x np) = W (OutC x colw) x cols^T, with the
	// bias added afterwards. The kernel is cache-blocked and fans across
	// goroutines on large layers while keeping each output's accumulation
	// order identical to the per-patch dot-product loop it replaced.
	np := oh * ow
	out := tensor.New(c.OutC, oh, ow)
	tensor.MatMulNTInto(out.Reshape(c.OutC, np), c.Weight.W, cols)
	od := out.Data()
	bd := c.Bias.W.Data()
	for oc := 0; oc < c.OutC; oc++ {
		row := od[oc*np : (oc+1)*np]
		b := bd[oc]
		for p := range row {
			row[p] += b
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	if c.lastIn == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	np := c.lastOutH * c.lastOutW
	cols := c.lastCols
	if cols == nil {
		cols = tensor.Im2Col(c.lastIn, c.KH, c.KW, c.Stride, c.Pad)
	}
	colw := cols.Dim(1)
	gd := grad.Data()
	gradMat := grad.Reshape(c.OutC, np)
	// dW += grad (OutC x np) x cols (np x colw); db[oc] += sum_p grad[oc,p].
	tensor.MatMulAccum(c.Weight.G, gradMat, cols)
	gb := c.Bias.G.Data()
	for oc := 0; oc < c.OutC; oc++ {
		var bsum float32
		for _, g := range gd[oc*np : (oc+1)*np] {
			bsum += g
		}
		gb[oc] += bsum
	}
	if !needInputGrad {
		return nil
	}
	// dCols (np x colw) = grad^T x W; dIn = Col2Im(dCols).
	dcols := tensor.New(np, colw)
	tensor.MatMulTNAccum(dcols, gradMat, c.Weight.W)
	return tensor.Col2Im(dcols, c.InC, c.lastInH, c.lastInWidthPx, c.KH, c.KW, c.Stride, c.Pad)
}

// Dense is a fully-connected layer y = Wx + b over flat vectors.
type Dense struct {
	LayerName string
	In, Out   int
	Weight    *Param
	Bias      *Param
	lastIn    *tensor.Tensor

	// wT is the (In x Out) transpose of Weight.W that both forward paths
	// multiply against, wTGen the Weight counter value it was built from and
	// wTBuilds how many times it was built (see weightT).
	wT       *tensor.Tensor
	wTGen    uint64
	wTBuilds int

	bArena tensor.Arena
	bIn    *tensor.Tensor
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

// Forward implements Layer: the batch-of-one case of ForwardBatch's GEMM on
// the same cached layout.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Len() != d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %v", d.LayerName, d.In, in.Shape()))
	}
	d.lastIn = in.Reshape(1, d.In)
	out := tensor.New(1, d.Out)
	tensor.MatMulAccumVec(out, d.lastIn, d.weightT())
	y := out.Data()
	bd := d.Bias.W.Data()
	for i := range y {
		y[i] += bd[i]
	}
	return tensor.FromSlice(y, d.Out)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	if d.lastIn == nil {
		panic("nn: Dense.Backward before Forward")
	}
	g := grad.Data()
	// dW += g ⊗ x (outer product through the PE array, Fig. 8);
	// db += g.
	tensor.Outer(d.Weight.G, g, d.lastIn.Data())
	bg := d.Bias.G.Data()
	for i, v := range g {
		bg[i] += v
	}
	if !needInputGrad {
		return nil
	}
	// dX = W^T g via the transposed-matrix dataflow.
	dx := tensor.MatVecT(d.Weight.W, g)
	return tensor.FromSlice(dx, d.In)
}

// ReLU is the rectifier activation, executed by the comparator units of each
// PE in hardware.
type ReLU struct {
	LayerName string
	mask      []bool

	bArena tensor.Arena
	bOut   *tensor.Tensor // latest ForwardBatch output; doubles as the mask
}

// NewReLU creates a rectifier layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	d := out.Data()
	if cap(r.mask) < len(d) {
		r.mask = make([]bool, len(d))
	}
	r.mask = r.mask[:len(d)]
	for i, v := range d {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			d[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	if !needInputGrad {
		return nil
	}
	out := grad.Clone()
	d := out.Data()
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out
}

// MaxPool is a 2-D max-pooling layer over CHW tensors.
type MaxPool struct {
	LayerName  string
	K, Stride  int
	lastShape  []int
	lastArgmax []int
	outH, outW int

	bArena  tensor.Arena
	bArgmax []int
	bShape  [4]int // cached NCHW input shape of the last ForwardBatch
}

// NewMaxPool creates a max-pooling layer with a square window.
func NewMaxPool(name string, k, stride int) *MaxPool {
	return &MaxPool{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.LayerName }

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	m.lastShape = []int{c, h, w}
	m.outH, m.outW = oh, ow
	out := tensor.New(c, oh, ow)
	if cap(m.lastArgmax) < c*oh*ow {
		m.lastArgmax = make([]int, c*oh*ow)
	}
	m.lastArgmax = m.lastArgmax[:c*oh*ow]
	id := in.Data()
	od := out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := base + oy*m.Stride*w + ox*m.Stride
				best := id[bestIdx]
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						idx := base + (oy*m.Stride+ky)*w + ox*m.Stride + kx
						if id[idx] > best {
							best = id[idx]
							bestIdx = idx
						}
					}
				}
				o := ch*oh*ow + oy*ow + ox
				od[o] = best
				m.lastArgmax[o] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool) Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	if !needInputGrad {
		return nil
	}
	out := tensor.New(m.lastShape...)
	od := out.Data()
	for o, src := range m.lastArgmax {
		od[src] += grad.Data()[o]
	}
	return out
}

// Flatten reshapes a CHW tensor into a flat vector (the "Flatten" stage
// between CONV5 and FC1 in Fig. 3(a)).
type Flatten struct {
	LayerName string
	lastShape []int

	// Cached reshape views: a Reshape allocates a header, so the batched
	// path reuses the previous view while its source tensor is unchanged.
	bIn, bOut, bGradIn, bGradOut *tensor.Tensor
	bShape                       [4]int
}

// NewFlatten creates a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], in.Shape()...)
	return in.Reshape(in.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	if !needInputGrad {
		return nil
	}
	return grad.Reshape(f.lastShape...)
}
