package nn

import (
	"fmt"
	"slices"

	"dronerl/internal/tensor"
)

// This file is the float layer stack's arithmetic: every layer processes B
// stacked samples (leading batch dimension, NCHW for spatial tensors) with a
// single cache-blocked GEMM per layer. A single sample is the batch of one —
// Network.Forward and ForwardRange reshape to a leading 1 and run these same
// methods — so there is exactly one forward and one backward per layer.
//
// Beyond amortizing per-call overheads, batching is what unlocks SIMD: the
// stacked layouts (stride-phase input planes, minibatch rows) make the
// non-reduction axis of every GEMM long and unit-stride, so the layers below
// run on the vectorized panel kernels (tensor.ConvInto, MatMulAccum,
// MatMulTNAccum), whose row updates span output elements — never the
// reduction axis (see matmul_vec.go). No layer builds an im2col panel:
// where the paper expands CONV inputs into a 2D matrix for backpropagation
// (Section V.B), both conv passes work in place on stride-phase planes
// (tensor.ConvInto, tensor.ConvBackward).
//
// Row contract: for every output element the kernels run a single-accumulator,
// ascending-index reduction, and parameter gradients accumulate in sample
// order, so row s of a batched pass is bit-identical to the same sample run
// alone, whatever the batch size. The golden hashes in internal/rl, transfer
// and scen pin the values themselves; scalar references in this package's
// tests pin each layer.
//
// Ownership: all intermediate storage lives in per-layer tensor.Arena
// workspaces, so at a constant batch size a forward/backward pass performs no
// heap allocation after the first — the software analogue of the
// accelerator's fixed scratchpad provisioning (paper Section V). (One caveat:
// with GOMAXPROCS > 1, a GEMM or conv of at least 1<<20 multiply-adds — FC1
// from batch 8, the convs at batch 32, the L3 tail's FC2 (B·128·64) only
// from batch 128 — fans out goroutines whose closures allocate. The contract
// is exact at any GOMAXPROCS below that size and on the single-threaded
// schedule above it.) ForwardBatch, ForwardBatchRange and BackwardBatch
// results are therefore arena-owned: valid until the owning
// layer's next pass, copy what must survive. Network.Forward and ForwardRange
// return private copies — callers store them in replay as Transition.Feat.
// No forward pass reads or writes its input after it returns; Dense and LRN
// hold a reference to it for BackwardBatch only, and Conv2D keeps its
// stride-phase planes, a copy, instead.
//
// One cache per layer: ForwardBatch leaves what BackwardBatch consumes (input
// reference or planes, argmax, mask, denominators), and any later forward
// pass through the layer — a Forward is one — overwrites it. Nothing may run
// between a network's ForwardBatch and the BackwardBatch that pairs with it.
// BackwardBatch panics when no forward preceded it or when the gradient's
// shape is not the cached forward's output shape, so a pass of another batch
// size in between fails loudly instead of indexing another batch's argmax.
//
// Arena headers: a slot keeps one tensor header, for the shape it last
// served. A network that alternates batch sizes (a batch-of-one Forward
// between TrainSteps at batch 32) re-headers its slots on each switch — two
// small allocations per layer — while the backing storage is reused.
//
// Conv2D keeps the tap-offset table of its input size across passes, and
// Dense the (In x Out) transpose of its weights, rebuilt only when the
// weights were marked changed: whoever writes Param.W calls MarkChanged.

// checkGrad panics unless a ForwardBatch left out behind and grad has its
// shape.
func checkGrad(layer string, out, grad *tensor.Tensor) {
	if out == nil {
		panic("nn: " + layer + " BackwardBatch before ForwardBatch")
	}
	if !slices.Equal(out.Shape(), grad.Shape()) {
		panic(fmt.Sprintf("nn: %s BackwardBatch gradient %v does not match the latest forward pass's output %v (another pass overwrote the cache)",
			layer, grad.Shape(), out.Shape()))
	}
}

// ForwardBatch implements Layer: an implicit GEMM over the whole batch
// (tensor.ConvInto). Each sample is staged once into the layer's stride-phase
// planes and the weights multiply them in place, so no im2col panel is
// built; each output element keeps a dot product's ascending order.
func (c *Conv2D) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 4 || in.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s expects NCHW input with C=%d, got %v", c.LayerName, c.InC, in.Shape()))
	}
	b, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s input %v is smaller than its %dx%d kernel with padding %d",
			c.LayerName, in.Shape(), c.KH, c.KW, c.Pad))
	}
	out := c.bArena.Get(0, b, c.OutC, oh, ow)
	tensor.ConvInto(out, in, c.Weight.W, c.Bias.W, c.KH, c.KW, c.Stride, c.Pad, &c.ws)
	c.bOut = out
	return out
}

// BackwardBatch implements Layer: dW, db and dX from the stride-phase planes
// the forward pass left in the layer's workspace (tensor.ConvBackward), so no
// im2col panel is built and no col2im scatter runs. Each gradient element
// keeps the ascending (sample, patch) order that processing the samples one
// after another produces.
func (c *Conv2D) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(c.LayerName, c.bOut, grad)
	return tensor.ConvBackward(c.Weight.G, c.Bias.G, grad, c.Weight.W, &c.ws, needInputGrad)
}

// Arena slots of Dense's batched workspace.
const (
	denseSlotOut = iota
	denseSlotDin
)

// ForwardBatch implements Layer: Y (B x Out) = X x W^T + bias in one GEMM.
// The GEMM reads the layer's cached
// (In x Out) weight layout (Dense.weightT) so it runs as saxpy updates over
// Out-wide rows — vectorized, with whole rows skipped wherever a ReLU zeroed
// the activation — while each output element keeps the ascending reduction
// order of a matrix-vector product (the bias is added only after the full
// reduction). The cached layout is as fresh as the last MarkChanged: whoever
// writes Param.W calls MarkChanged.
func (d *Dense) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 2 || in.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s expects (B, %d) input, got %v", d.LayerName, d.In, in.Shape()))
	}
	b := in.Dim(0)
	out := d.bArena.Get(denseSlotOut, b, d.Out)
	d.bIn, d.bOut = in, out
	out.Zero()
	tensor.MatMulAccum(out, in, d.weightT())
	od := out.Data()
	bd := d.Bias.W.Data()
	for s := 0; s < b; s++ {
		row := od[s*d.Out : (s+1)*d.Out]
		for i := range row {
			row[i] += bd[i]
		}
	}
	return out
}

// BackwardBatch implements Layer: dW += G^T x X and dX = G x W, one GEMM
// each, with the batch axis as the ascending reduction so parameter gradients
// accumulate in sample order.
func (d *Dense) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(d.LayerName, d.bOut, grad)
	b := grad.Dim(0)
	tensor.MatMulTNAccum(d.Weight.G, grad, d.bIn)
	gd := grad.Data()
	bg := d.Bias.G.Data()
	for s := 0; s < b; s++ {
		row := gd[s*d.Out : (s+1)*d.Out]
		for i, v := range row {
			bg[i] += v
		}
	}
	if !needInputGrad {
		return nil
	}
	din := d.bArena.Get(denseSlotDin, b, d.In)
	din.Zero()
	tensor.MatMulAccum(din, grad, d.Weight.W)
	return din
}

// ForwardBatch implements Layer: the elementwise rectifier (v > 0 ? v : 0, so
// NaN and -0 become +0) on the SIMD kernel, written into a reused workspace.
// No separate mask is kept: the cached output is its own mask, since out > 0
// exactly when the input was > 0.
func (r *ReLU) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	out := r.bArena.Get(0, in.Shape()...)
	tensor.ReluInto(out, in)
	r.bOut = out
	return out
}

// BackwardBatch implements Layer.
func (r *ReLU) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(r.LayerName, r.bOut, grad)
	if !needInputGrad {
		return nil
	}
	out := r.bArena.Get(1, grad.Shape()...)
	tensor.ReluGradInto(out, grad, r.bOut)
	return out
}

// ForwardBatch implements Layer: per-sample pooling loops writing into a
// reused batch workspace; the first maximum of a window wins ties. Argmax
// indices are stored flat into the batch input so BackwardBatch is a single
// scatter.
func (m *MaxPool) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", m.LayerName, in.Shape()))
	}
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	if h < m.K || w < m.K {
		panic(fmt.Sprintf("nn: %s input %v is smaller than its %dx%d window", m.LayerName, in.Shape(), m.K, m.K))
	}
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	m.bShape = [4]int{b, c, h, w}
	out := m.bArena.Get(0, b, c, oh, ow)
	m.bOut = out
	if cap(m.bArgmax) < b*c*oh*ow {
		m.bArgmax = make([]int, b*c*oh*ow)
	}
	m.bArgmax = m.bArgmax[:b*c*oh*ow]
	id := in.Data()
	od := out.Data()
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * h * w
			obase := (s*c + ch) * oh * ow
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
					o := obase + oy*ow + ox
					od[o] = best
					m.bArgmax[o] = bestIdx
				}
			}
		}
	}
	return out
}

// BackwardBatch implements Layer.
func (m *MaxPool) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(m.LayerName, m.bOut, grad)
	if !needInputGrad {
		return nil
	}
	out := m.bArena.Get(1, m.bShape[0], m.bShape[1], m.bShape[2], m.bShape[3])
	out.Zero()
	od := out.Data()
	gd := grad.Data()
	for o, src := range m.bArgmax {
		od[src] += gd[o]
	}
	return out
}

// ForwardBatch implements Layer: (B, C, H, W) -> (B, C*H*W) as a view.
// The view header is cached so a steady-state pass allocates nothing.
func (f *Flatten) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", f.LayerName, in.Shape()))
	}
	sh := in.Shape()
	shape := [4]int{sh[0], sh[1], sh[2], sh[3]}
	if f.bIn != in || f.bShape != shape {
		f.bIn, f.bShape = in, shape
		f.bOut = in.Reshape(shape[0], shape[1]*shape[2]*shape[3])
	}
	return f.bOut
}

// BackwardBatch implements Layer.
func (f *Flatten) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(f.LayerName, f.bOut, grad)
	if !needInputGrad {
		return nil
	}
	if f.bGradIn != grad || f.bGradOut == nil || f.bGradOut.Dim(0) != f.bShape[0] ||
		f.bGradOut.Dim(1) != f.bShape[1] || f.bGradOut.Dim(2) != f.bShape[2] || f.bGradOut.Dim(3) != f.bShape[3] {
		f.bGradIn = grad
		f.bGradOut = grad.Reshape(f.bShape[0], f.bShape[1], f.bShape[2], f.bShape[3])
	}
	return f.bGradOut
}

// ForwardBatch implements Layer: the normalization loops per sample, with
// denominators cached for the whole batch.
func (l *LRN) ForwardBatch(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", l.LayerName, in.Shape()))
	}
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	out := l.bArena.Get(0, b, c, h, w)
	if cap(l.bDenom) < b*c*h*w {
		l.bDenom = make([]float64, b*c*h*w)
	}
	l.bDenom = l.bDenom[:b*c*h*w]
	l.bIn, l.bOut = in, out
	hw := h * w
	for s := 0; s < b; s++ {
		id := in.Data()[s*c*hw : (s+1)*c*hw]
		od := out.Data()[s*c*hw : (s+1)*c*hw]
		denom := l.bDenom[s*c*hw : (s+1)*c*hw]
		l.forwardSample(id, od, denom, c, hw)
	}
	return out
}

// BackwardBatch implements Layer.
func (l *LRN) BackwardBatch(grad *tensor.Tensor, needInputGrad bool) *tensor.Tensor {
	checkGrad(l.LayerName, l.bOut, grad)
	if !needInputGrad {
		return nil
	}
	in := l.bIn
	b, c := in.Dim(0), in.Dim(1)
	hw := in.Dim(2) * in.Dim(3)
	out := l.bArena.Get(1, in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3))
	for s := 0; s < b; s++ {
		id := in.Data()[s*c*hw : (s+1)*c*hw]
		gd := grad.Data()[s*c*hw : (s+1)*c*hw]
		od := out.Data()[s*c*hw : (s+1)*c*hw]
		denom := l.bDenom[s*c*hw : (s+1)*c*hw]
		l.backwardSample(id, gd, od, denom, c, hw)
	}
	return out
}
