package qnn

import (
	"fmt"

	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// This file is the batched integer inference path: every layer processes B
// stacked samples (leading batch dimension, NCHW for spatial tensors) with a
// single int16 GEMM per weighted layer — tensor.MatMul16T, whose AVX2 Dot16
// inner loop is unconditionally asserted bit-identical to the scalar kernel —
// instead of B single-sample passes. All intermediate panels live in a
// grow-only per-network workspace, so after the first batch of a given size
// the pass performs no heap allocation, mirroring the float path's arena
// contract (nn/batch.go) and the accelerator's fixed scratchpad provisioning.
//
// Accumulation contract. The serial path (qnn.go) accumulates with fixed.MAC,
// which saturates the 32-bit accumulator at every step; the GEMM kernels
// accumulate with two's-complement wrap-around and saturate exactly once at
// the final narrow (the tensor/int16.go contract the quantized training
// engine already relies on). The two agree on every output word whenever no
// intermediate sum leaves the int32 range — guaranteed by the same range
// discipline the training path documents: with Q7.8 activations and Q2.13
// weights under trained-weight magnitudes, reduction rows sit orders of
// magnitude below the overflow horizon. Padding is the other visible
// difference: the serial loop skips out-of-bounds taps while the im2col
// panel materializes them as zero words, which add zero to either kind of
// accumulator. Batched output words are therefore bit-identical to B serial
// Forward calls, pinned (not assumed) by TestQuantInferBatchBitIdentical
// across every builtin scenario.
//
// A Network's batched path is not safe for concurrent use — the workspace is
// shared across calls. Give each goroutine its own compiled Network, exactly
// as the serving workers and swarm fleets do.

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

// gemmRowLen is the conv panels' row stride: the receptive-field width colw
// rounded up to the int16 dot kernel's 16-lane step, the tail filled with
// zero words on both GEMM operands. Zero products add nothing to a
// wrap-around sum, so every output word is unchanged; what changes is that
// NavNet's 25- and 72-tap reductions run wholly in the vector loop instead
// of finishing 9 and 8 taps one by one (about half the cost of a dot product
// that short). The scalar fallback pays the extra taps, 11-28 % more conv
// MACs on non-AVX2 hosts.
func gemmRowLen(colw int) int { return (colw + 15) &^ 15 }

// padRows copies the (rows x colw) row-major matrix src into dst at row
// stride rowLen, zeroing each row's tail: the weight-side twin of the
// im2col panel layout.
func padRows[T ~int16](dst []int16, src []T, colw, rowLen int) {
	for r := 0; r*colw < len(src); r++ {
		row := dst[r*rowLen : (r+1)*rowLen]
		for i, v := range src[r*colw : (r+1)*colw] {
			row[i] = int16(v)
		}
		clear(row[colw:])
	}
}

// im2colPatchMajor expands bsz stacked CHW samples into the patch-major int16
// GEMM panel both integer engines convolve through (inference here, training
// in train.go): row s*np+p, at stride gemmRowLen, holds output pixel p of
// sample s's receptive field in the serial loop's (ic, ky, kx) order, with
// padding taps and the row tail materialized as zero words. Each (ic, ky)
// line of a patch is one contiguous run of a source row, so the expansion is
// a clipped copy per line rather than a bounds test per tap.
func im2colPatchMajor[T ~int16](panel []int16, src []T, bsz, inC, h, w, k, stride, pad int) {
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	colw := inC * k * k
	rowLen := gemmRowLen(colw)
	chw := inC * h * w
	for s := 0; s < bsz; s++ {
		img := src[s*chw : (s+1)*chw]
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			kyLo, kyHi := max(0, -iy0), min(k, h-iy0)
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				kxLo, kxHi := max(0, -ix0), min(k, w-ix0)
				row := panel[:rowLen]
				panel = panel[rowLen:]
				// Taps [kyLo,kyHi) x [kxLo,kxHi) of every channel fall
				// inside the image; a clipped patch starts from all zeros.
				n := kxHi - kxLo
				if n == k && kyHi-kyLo == k {
					clear(row[colw:])
				} else {
					clear(row)
				}
				if n <= 0 {
					continue
				}
				for ic := 0; ic < inC; ic++ {
					for ky := kyLo; ky < kyHi; ky++ {
						line := img[(ic*h+iy0+ky)*w+ix0+kxLo:][:n]
						dst := row[(ic*k+ky)*k+kxLo:][:n]
						for i := range dst {
							dst[i] = int16(line[i])
						}
					}
				}
			}
		}
	}
}

// batchLayer is the batched hook every builtin Layer implements: forward B
// stacked samples (in.Shape[0] is the batch dimension) through the layer's
// one-GEMM-per-batch kernel, staging through the workspace's slot for this
// layer index. The returned tensor's data is owned by the workspace (or, for
// view layers, aliases the input) and stays valid until the layer's next
// batched call.
type batchLayer interface {
	forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor
}

// ensureGEMM builds the conv layer's GEMM-side weight image — the quantized
// words re-typed for the int16 kernel at the panel's padded row stride — and
// the bias rescaled into the output format, computed once: compiled weights
// are immutable (a policy reload compiles a fresh backend).
func (c *Conv2D) ensureGEMM() {
	if c.wGemm != nil {
		return
	}
	colw := c.InC * c.K * c.K
	c.wGemm = make([]int16, c.OutC*gemmRowLen(colw))
	padRows(c.wGemm, c.W, colw, gemmRowLen(colw))
	c.bOut = make(fixed.Vec, len(c.B))
	for i, b := range c.B {
		c.bOut[i] = rescale(b, c.WFmt, c.OutFmt)
	}
}

// forwardBatch implements batchLayer: one im2col expansion over the whole
// batch and one integer GEMM computing all B samples' outputs. The panel is
// patch-major — row s*np+p holds output pixel p of sample s's receptive
// field in the serial loop's (ic, ky, kx) order — so every GEMM element runs
// the exact reduction the serial MAC loop runs, with padding taps as zero
// words.
func (c *Conv2D) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	bsz, h, w := in.Shape[0], in.Shape[2], in.Shape[3]
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	np := oh * ow
	rowLen := gemmRowLen(c.InC * c.K * c.K)
	c.ensureGEMM()
	panel := ws.get16(slot, bsz*np*rowLen)
	im2colPatchMajor(panel, in.Data, bsz, c.InC, h, w, c.K, c.Stride, c.Pad)
	// One GEMM for the whole batch: acc (B*np x OutC) = panel x Wᵀ, then the
	// serial path's single narrow + bias add per output pixel, scattered from
	// patch-major back to batch-major CHW.
	acc := ws.get32(slot, bsz*np*c.OutC)
	tensor.MatMul16T(acc, panel, c.wGemm, bsz*np, rowLen, c.OutC)
	if len(c.bShape) != 4 {
		c.bShape = make([]int, 4)
	}
	c.bShape[0], c.bShape[1], c.bShape[2], c.bShape[3] = bsz, c.OutC, oh, ow
	out := QTensor{Shape: c.bShape, Data: ws.getWords(slot, bsz*c.OutC*np), Fmt: c.OutFmt}
	for s := 0; s < bsz; s++ {
		for oc := 0; oc < c.OutC; oc++ {
			dst := out.Data[(s*c.OutC+oc)*np : (s*c.OutC+oc+1)*np]
			bias := c.bOut[oc]
			arow := acc[s*np*c.OutC:]
			for p := range dst {
				word := narrowMixed(fixed.Acc(arow[p*c.OutC+oc]), c.InFmt, c.WFmt, c.OutFmt)
				dst[p] = fixed.SatAdd(word, bias)
			}
		}
	}
	return out
}

// ensureGEMM mirrors Conv2D's: d.W is (Out, In) row-major, which is exactly
// the transposed-operand layout MatMul16T wants, so the image is a pure
// element-type copy.
func (d *Dense) ensureGEMM() {
	if d.wGemm != nil {
		return
	}
	d.wGemm = make([]int16, len(d.W))
	for i, w := range d.W {
		d.wGemm[i] = int16(w)
	}
	d.bOut = make(fixed.Vec, len(d.B))
	for i, b := range d.B {
		d.bOut[i] = rescale(b, d.WFmt, d.OutFmt)
	}
}

// forwardBatch implements batchLayer: Y (B x Out) = X x Wᵀ in one integer
// GEMM — the layer's weights stream through the kernel once for the whole
// batch — followed by the serial path's narrow and bias per element.
func (d *Dense) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	bsz := in.Shape[0]
	if in.Len()/bsz != d.In {
		panic(fmt.Sprintf("qnn: %s expects %d inputs per sample, got %d", d.LayerName, d.In, in.Len()/bsz))
	}
	d.ensureGEMM()
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
	for s := 0; s < bsz; s++ {
		row := out.Data[s*d.Out : (s+1)*d.Out]
		for j := range row {
			word := narrowMixed(fixed.Acc(acc[s*d.Out+j]), d.InFmt, d.WFmt, d.OutFmt)
			row[j] = fixed.SatAdd(word, d.bOut[j])
		}
	}
	return out
}

// forwardBatch implements batchLayer; the rectifier is elementwise, so the
// batch path is the serial comparator over the stacked words.
func (r *ReLU) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	out := QTensor{Shape: in.Shape, Data: ws.getWords(slot, in.Len()), Fmt: in.Fmt}
	copy(out.Data, in.Data)
	fixed.ReLUVec(out.Data)
	return out
}

// forwardBatch implements batchLayer: the serial comparator loops per sample,
// writing into the layer's workspace slot.
func (m *MaxPool) forwardBatch(in QTensor, ws *batchWorkspace, slot int) QTensor {
	bsz, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
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
// integer pipeline with one int16 GEMM per weighted layer for the whole
// batch. It returns the B stacked Q-value words row-major and their format;
// both alias the network workspace and stay valid until the next batched
// call. Per-row words are bit-identical to B serial Forward calls (see the
// file comment for the accumulation argument; pinned by test).
func (n *Network) ForwardBatch(batch *tensor.Tensor) (fixed.Vec, fixed.Format) {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("qnn: ForwardBatch expects a (B, C, H, W) batch, got %v", batch.Shape()))
	}
	if n.ws == nil {
		n.ws = &batchWorkspace{}
	}
	ws := n.ws
	if cap(ws.in) < batch.Len() {
		ws.in = make(fixed.Vec, batch.Len())
	}
	ws.in = ws.in[:batch.Len()]
	for i, v := range batch.Data() {
		ws.in[i] = n.InFmt.FromFloat(float64(v))
	}
	q := QTensor{Shape: batch.Shape(), Data: ws.in, Fmt: n.InFmt}
	for i, l := range n.Layers {
		bl, ok := l.(batchLayer)
		if !ok {
			panic(fmt.Sprintf("qnn: layer %s (%T) has no batched kernel", l.Name(), l))
		}
		q = bl.forwardBatch(q, ws, i)
	}
	return q.Data, q.Fmt
}
