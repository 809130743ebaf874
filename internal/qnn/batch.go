package qnn

import (
	"fmt"
	"math"

	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// This file is the integer inference engine's kernels: every layer processes
// B stacked samples (leading batch dimension, NCHW for spatial tensors) in one
// call — a direct int16 convolution (tensor.Conv16Batch) or one int16 GEMM
// (tensor.MatMul16T) per weighted layer, both asserted bit-identical to their
// scalar twins — and a lone frame (Network.Forward, Backend.Infer,
// Layer.Forward in qnn.go) is the batch of one. All intermediate panels live
// in a grow-only per-network workspace, so after the first batch of a given
// size a pass performs no heap allocation, mirroring the float path's arena
// contract (nn/batch.go) and the accelerator's fixed scratchpad provisioning.
//
// Epilogue. A weighted layer's int32 sums become words in one tensor.Narrow16
// pass (the PE's round-half-up narrow, the saturating bias add, a clamp at lo)
// and a conv's then move to CHW planes (tensor.PixelsToPlanes16). Alone a layer
// clamps nothing (lo = math.MinInt16); Network.forward passes lo = 0 — the
// ReLU's max(word, 0) word for word — when a ReLU follows, and skips its pass.
//
// Accumulation contract. The PE datapath saturates its 32-bit accumulator at
// every MAC (fixed.MAC; the scalar reference in serial_test.go). The kernels
// here accumulate with two's-complement wrap-around and saturate exactly once
// at the final narrow (the tensor/int16.go contract the quantized training
// engine already relies on). The two agree on every output word whenever no
// intermediate sum leaves the int32 range, which real snapshots on real
// frames do not: TestQuantInferBatchBitIdentical holds the engine to the
// saturating loop word for word on every builtin scenario at batch 1, 8 and
// 32, TestQuantInferGolden pins Infer to hashes the saturating engine
// produced at fd6fe34, and TestTrainAccumulatorHeadroom measures the true
// 64-bit sums 8 bits under the horizon. Padding is the other visible
// difference: the scalar loop skips out-of-bounds taps while the kernels read
// them as zero words, which add zero to either kind of accumulator.
//
// What is given up. A snapshot whose true sums do leave int32 (hostile or
// diverged weights) was clamped per MAC when its request happened to ride
// alone and wrapped when it was coalesced; it is now answered by the
// wrap-around kernels either way, so one snapshot no longer has two
// arithmetics depending on queue timing. Outputs still saturate at the narrow
// (TestIntegerOutputsAlwaysInRange). There is no compile-time refusal of such
// snapshots: the static bound Σ|w|·max|a| exceeds 2^31 in the FC stack of
// every ordinary NavNet, so it would refuse them all (ROADMAP item 3).
//
// A Network is not safe for concurrent use — the workspace is shared across
// calls. Give each goroutine its own compiled Network, exactly as the serving
// workers and swarm fleets do.

// batchWorkspace is the grow-only slot pool behind the batched paths: int16
// panels, int32 accumulator panels and word panels indexed by slot (the layer
// index here; the training engine, train.go, keys several panels per layer
// and adds 64-bit gradient accumulators), plus the quantized input stack.
// Slices are resliced, never shrunk, so steady-state batches of any size
// allocate nothing.
type batchWorkspace struct {
	i16   [][]int16
	i32   [][]int32
	i64   [][]int64
	words []fixed.Vec
	in    fixed.Vec
}

func (ws *batchWorkspace) get16(slot, n int) []int16 {
	for slot >= len(ws.i16) {
		ws.i16 = append(ws.i16, nil)
	}
	if cap(ws.i16[slot]) < n {
		ws.i16[slot] = make([]int16, n)
	}
	return ws.i16[slot][:n]
}

func (ws *batchWorkspace) get32(slot, n int) []int32 {
	for slot >= len(ws.i32) {
		ws.i32 = append(ws.i32, nil)
	}
	if cap(ws.i32[slot]) < n {
		ws.i32[slot] = make([]int32, n)
	}
	return ws.i32[slot][:n]
}

func (ws *batchWorkspace) get64(slot, n int) []int64 {
	for slot >= len(ws.i64) {
		ws.i64 = append(ws.i64, nil)
	}
	if cap(ws.i64[slot]) < n {
		ws.i64[slot] = make([]int64, n)
	}
	return ws.i64[slot][:n]
}

func (ws *batchWorkspace) getWords(slot, n int) fixed.Vec {
	for slot >= len(ws.words) {
		ws.words = append(ws.words, nil)
	}
	if cap(ws.words[slot]) < n {
		ws.words[slot] = make(fixed.Vec, n)
	}
	return ws.words[slot][:n]
}

// batchLayer is the kernel every builtin Layer implements: forward B stacked
// samples (in.Shape[0] is the batch dimension), staging through the
// workspace's slot for this layer index. The returned tensor's data is owned
// by the workspace (or, for view layers, aliases the input) and stays valid
// until the layer's next call.
type batchLayer interface {
	forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor
}

// ensureKernel packs the conv layer's weights for the direct convolution and
// builds the bias row, once: compiled weights are immutable (a policy reload
// compiles a fresh backend).
func (c *Conv2D) ensureKernel() {
	if c.direct != nil {
		return
	}
	c.direct = tensor.NewConv16(c.W, c.InC, c.OutC, c.K, c.Stride, c.Pad)
	c.bRow = biasRow(c.B, c.WFmt, c.OutFmt)
}

// biasRow is b in the output format, repeated to whole 16-word blocks.
func biasRow(b fixed.Vec, from, to fixed.Format) []int16 {
	var row []int16
	for _, w := range b {
		row = append(row, int16(rescale(w, from, to)))
	}
	for len(row)%16 != 0 {
		row = append(row, row[:len(b)]...)
	}
	return row
}

// clampLayer is a weighted layer whose epilogue can fold in a following ReLU.
type clampLayer interface {
	forwardClamped(in QTensor, ws *batchWorkspace, slot int, lo int16) QTensor
}

func (c *Conv2D) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	return c.forwardClamped(in, ws, slot, math.MinInt16)
}

// forwardClamped implements clampLayer: the direct convolution leaves each
// output pixel's wrap-around sums in (pixel, oc) order (padding taps as zero
// words), narrowed into the then-free padded-sample scratch and moved to CHW.
func (c *Conv2D) forwardClamped(in QTensor, ws *batchWorkspace, slot int, lo int16) QTensor {
	if len(in.Shape) != 4 || in.Shape[1] != c.InC {
		panic(fmt.Sprintf("qnn: %s expects (B, %d, H, W) samples, got shape %v", c.LayerName, c.InC, in.Shape))
	}
	bsz, h, w := in.Shape[0], in.Shape[2], in.Shape[3]
	c.ensureKernel()
	oh, ow := c.direct.OutHW(h, w)
	np, n := oh*ow, oh*ow*c.OutC
	acc := ws.get32(slot, bsz*n)
	words := ws.get16(slot, max(c.direct.ScratchLen(h, w), bsz*n))
	tensor.Conv16Batch(c.direct, acc, words, in.Data, bsz, h, w)
	tensor.Narrow16(words, acc, c.bRow, int(c.InFmt.Frac+c.WFmt.Frac)-int(c.OutFmt.Frac), lo)
	if len(c.bShape) != 4 {
		c.bShape = make([]int, 4)
	}
	c.bShape[0], c.bShape[1], c.bShape[2], c.bShape[3] = bsz, c.OutC, oh, ow
	out := QTensor{Shape: c.bShape, Data: ws.getWords(slot, bsz*n), Fmt: c.OutFmt}
	for s := 0; s < bsz; s++ {
		tensor.PixelsToPlanes16(out.Data[s*n:], words[s*n:], np, c.OutC)
	}
	return out
}

// ensureKernel mirrors Conv2D's: d.W is (Out, In) row-major, which is exactly
// the transposed-operand layout MatMul16T wants, so the image is a pure
// element-type copy.
func (d *Dense) ensureKernel() {
	if d.wGemm != nil {
		return
	}
	d.wGemm = make([]int16, len(d.W))
	for i, w := range d.W {
		d.wGemm[i] = int16(w)
	}
	d.bRow = biasRow(d.B, d.WFmt, d.OutFmt)
}

func (d *Dense) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	return d.forwardClamped(in, ws, slot, math.MinInt16)
}

// forwardClamped implements clampLayer: Y (B x Out) = X x Wᵀ in one integer
// GEMM — the layer's weights stream through the kernel once for the whole
// batch — and one epilogue pass over the row-major result.
func (d *Dense) forwardClamped(in QTensor, ws *batchWorkspace, slot int, lo int16) QTensor {
	bsz := in.Shape[0]
	if in.Len()/bsz != d.In {
		panic(fmt.Sprintf("qnn: %s expects %d inputs per sample, got %d", d.LayerName, d.In, in.Len()/bsz))
	}
	d.ensureKernel()
	x := ws.get16(slot, bsz*d.In)
	for i, w := range in.Data {
		x[i] = int16(w)
	}
	acc := ws.get32(slot, bsz*d.Out)
	tensor.MatMul16T(acc, x, d.wGemm, bsz, d.In, d.Out)
	if len(d.bShape) != 2 {
		d.bShape = make([]int, 2)
	}
	d.bShape[0], d.bShape[1] = bsz, d.Out
	out := QTensor{Shape: d.bShape, Data: ws.getWords(slot, bsz*d.Out), Fmt: d.OutFmt}
	tensor.Narrow16(out.Data, acc, d.bRow, int(d.InFmt.Frac+d.WFmt.Frac)-int(d.OutFmt.Frac), lo)
	return out
}

// forwardBatch implements batchLayer: one comparator pass over the stacked
// words into the layer's slot; the input is not mutated.
func (r *ReLU) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	out := QTensor{Shape: in.Shape, Data: ws.getWords(slot, in.Len()), Fmt: in.Fmt}
	for i, w := range in.Data {
		out.Data[i] = max(w, 0)
	}
	return out
}

// forwardBatch implements batchLayer: comparator loops per sample, writing
// into the layer's workspace slot.
func (m *MaxPool) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	bsz, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if h < m.K || w < m.K {
		panic(fmt.Sprintf("qnn: %s input %v is smaller than its %dx%d window", m.LayerName, in.Shape, m.K, m.K))
	}
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	if len(m.bShape) != 4 {
		m.bShape = make([]int, 4)
	}
	m.bShape[0], m.bShape[1], m.bShape[2], m.bShape[3] = bsz, c, oh, ow
	out := QTensor{Shape: m.bShape, Data: ws.getWords(slot, bsz*c*oh*ow), Fmt: in.Fmt}
	for s := 0; s < bsz; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * h * w
			obase := (s*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := in.Data[base+oy*m.Stride*w+ox*m.Stride]
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							v := in.Data[base+(oy*m.Stride+ky)*w+ox*m.Stride+kx]
							best = fixed.Max2(best, v)
						}
					}
					out.Data[obase+oy*ow+ox] = best
				}
			}
		}
	}
	return out
}

// forwardBatch implements batchLayer: (B, C, H, W) -> (B, C*H*W) as a view;
// batch-major data is already flat per sample.
func (f *Flatten) forwardBatch(in QTensor, ws *batchWorkspace, _ int) QTensor {
	bsz := in.Shape[0]
	if len(f.bShape) != 2 {
		f.bShape = make([]int, 2)
	}
	f.bShape[0], f.bShape[1] = bsz, in.Len()/bsz
	return QTensor{Shape: f.bShape, Data: in.Data, Fmt: in.Fmt}
}

// ForwardBatch quantizes B stacked float observations ((B, C, H, W), the
// float path's ForwardBatch layout) into the input format and runs the
// integer pipeline, one kernel call per layer for the whole batch. It returns
// the B stacked Q-value words row-major and their format; both alias the
// network workspace and stay valid until the network's next pass. A sample's
// words do not depend on the batch it rides in.
func (n *Network) ForwardBatch(batch *tensor.Tensor) (fixed.Vec, fixed.Format) {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("qnn: ForwardBatch expects a (B, C, H, W) batch, got %v", batch.Shape()))
	}
	return n.forward(batch.Data(), batch.Shape())
}

// forward is the engine's one pass: data holds shape[0] stacked samples.
func (n *Network) forward(data []float32, shape []int) (fixed.Vec, fixed.Format) {
	ws := &n.ws
	if cap(ws.in) < len(data) {
		ws.in = make(fixed.Vec, len(data))
	}
	ws.in = ws.in[:len(data)]
	for i, v := range data {
		ws.in[i] = n.InFmt.FromFloat(float64(v))
	}
	q := QTensor{Shape: shape, Data: ws.in, Fmt: n.InFmt}
	for i := 0; i < len(n.Layers); i++ {
		if cl, ok := n.Layers[i].(clampLayer); ok && i+1 < len(n.Layers) {
			if _, relu := n.Layers[i+1].(*ReLU); relu {
				q = cl.forwardClamped(q, ws, i, 0)
				i++ // the ReLU ran in the epilogue
				continue
			}
		}
		bl, ok := n.Layers[i].(batchLayer)
		if !ok {
			panic(fmt.Sprintf("qnn: layer %s (%T) has no kernel", n.Layers[i].Name(), n.Layers[i]))
		}
		q = bl.forwardBatch(q, ws, i)
	}
	return q.Data, q.Fmt
}
