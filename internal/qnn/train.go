package qnn

import (
	"fmt"
	"math"

	"dronerl/internal/fixed"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// The int16 engine: forward, backward and weight update executed in the
// accelerator's integer arithmetic, the regime Roy et al. study for MRAM
// training scratchpads (PAPERS.md), and the one layer walk that serving runs
// too: Compile is this walk with nothing trainable. Every kernel is batched —
// one int16 GEMM (tensor.MatMul16T) per weighted layer per minibatch, a
// trainable conv through the im2col panel its backward pass reads back, a
// frozen conv through the direct kernel (tensor.Conv16Batch) — and a single
// sample is a batch of one.
//
// Accumulation. Where the PE datapath saturates every MAC, every forward
// pass here, Dense *and* Conv, follows the int16 kernels' contract
// (tensor/int16.go): products widen into wrap-around int32 accumulators and
// saturate exactly once, at the final narrow, after the bias has joined the
// sum in 64 bits (tensor.Narrow64, the engine's one epilogue). That equals a
// 64-bit accumulation on every output word as long as the true sum of
// products fits int32. The precondition is asserted, not assumed:
// TestTrainAccumulatorHeadroom shadows every conv and dense accumulator in
// 64 bits over real depth frames on the meta-trained NavNet and holds the
// largest |sum| 8 bits under the horizon, TestTrainConvMatchesScalarReference
// and TestTrainDenseMatchesScalarReference compare both weighted layers with
// the scalar int64 loops they replaced word for word, and
// TestTrainBackendGolden pins whole TD schedules to hashes those loops
// produced. A snapshot whose true sums do leave int32 (hostile or diverged
// weights) is answered by the wrap-around kernels, whatever batch its request
// rides in, and its outputs still saturate at the narrow
// (TestIntegerOutputsAlwaysInRange). Gradients are the other direction: they
// accumulate in 64-bit Q-format scratchpads (the "sum of weight and bias
// gradients" scratchpad of Section V, widened so batch accumulation cannot
// wrap) through one kernel for every layer and both gradients,
// tensor.AxpyPanel16, whose int64 sums are exact in any order. The weight
// update applies lr·grad with *stochastic* rounding (fixed.SR): a
// deterministic round would silently drop every update below half a weight
// LSB — most late-training updates — where the stochastic round is correct
// in expectation, so small gradients keep accumulating across steps.
//
// ReLU folding. A ReLU directly after a weighted layer runs in that layer's
// epilogue — Narrow64 clamps at 0 — and its own forward passes the words
// through. Its backward still masks the gradient by its cached input, now the
// folded output, and out > 0 exactly when the unfolded input is, so folding
// moves no word of training.
//
// Row independence. A forward pass is exact integer arithmetic per row: each
// output word is one wrap-around int32 sum of that row's own products and one
// narrow, and ReLU and pooling never look across rows, so the words a sample
// leaves at any layer do not depend on the batch it rode in. Frozen words
// never change after compilation, so a frame's activation at the training
// boundary, computed once at batch one when the frame is captured
// (TrainBackend.BoundaryFeatures), stands in bit for bit for the prefix pass
// of every minibatch that samples it (TestTrainBackendFeaturesBitIdentical).
//
// Format plan (defaults): activations Q7.8, weights Q2.13, activation
// gradients Q7.8, learning-rate scale 2^16. Accumulator scales follow from
// the products: forward 2^(8+13), weight gradients 2^(8+8), input
// gradients 2^(8+13).

// TrainOptions configures CompileTrainable and Compile. Zero values select
// the documented defaults.
type TrainOptions struct {
	// WeightFmt encodes weights and biases (default Q2.13: CNN weights are
	// small, so spending bits on fraction preserves accuracy).
	WeightFmt fixed.Format
	// ActFmt encodes activations (default Q7.8, matching the accelerator's
	// activation range).
	ActFmt fixed.Format
	// GradFmt encodes activation gradients flowing backward (default Q7.8).
	GradFmt fixed.Format
	// LRFrac is the fixed-point fraction of the scaled learning rate
	// (default 16 bits).
	LRFrac uint
	// Seed seeds the stochastic-rounding stream; a fixed seed makes the
	// whole training run bit-reproducible (default 1).
	Seed uint64
}

func (o *TrainOptions) setDefaults() {
	zero := fixed.Format{}
	if o.WeightFmt == zero {
		o.WeightFmt = fixed.Format{Frac: 13}
	}
	if o.ActFmt == zero {
		o.ActFmt = fixed.Q78
	}
	if o.GradFmt == zero {
		o.GradFmt = fixed.Q78
	}
	if o.LRFrac == 0 {
		o.LRFrac = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// sat16 clamps a 64-bit value into int16.
func sat16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// narrow64 rescales a 2^shift-scaled accumulator to an int16 word with
// round-half-up and one final saturation — the training engine's only
// saturation point, per the wrap-around contract.
func narrow64(v int64, shift uint) int16 {
	if shift > 0 {
		v = (v + int64(1)<<(shift-1)) >> shift
	}
	return sat16(v)
}

// floor is a weighted layer's epilogue clamp: 0 when it folds the ReLU after
// it, none otherwise.
func floor(relu bool) int16 {
	if relu {
		return 0
	}
	return math.MinInt16
}

// batchWorkspace is the grow-only slot pool behind the walk: int16 panels,
// int32 accumulator panels and int64 gradient accumulators, indexed by slot
// (several kinds per layer, below). Slices are resliced, never shrunk, so
// steady-state batches of any size allocate nothing — the float path's arena
// contract (nn/batch.go) and the accelerator's fixed scratchpad provisioning.
type batchWorkspace struct {
	i16 [][]int16
	i32 [][]int32
	i64 [][]int64
}

func (ws *batchWorkspace) get16(slot, n int) []int16 { return slotOf(&ws.i16, slot, n) }
func (ws *batchWorkspace) get32(slot, n int) []int32 { return slotOf(&ws.i32, slot, n) }
func (ws *batchWorkspace) get64(slot, n int) []int64 { return slotOf(&ws.i64, slot, n) }

// slotOf returns pool slot slot resliced to n elements, growing the pool and
// the slot as needed.
func slotOf[T any](pool *[][]T, slot, n int) []T {
	for slot >= len(*pool) {
		*pool = append(*pool, nil)
	}
	return grow(&(*pool)[slot], n)
}

// tLayer is one stage of the int16 walk. Every kernel is
// batched: forwardBatch runs bsz stacked samples (row-major, one CHW block
// per sample) and caches whatever backwardBatch needs for the same rows;
// backwardBatch accumulates the gradient scratchpads over the whole batch
// and returns the stacked input gradient in GradFmt. Panels are staged in
// the network's grow-only workspace under the layer's slot and stay valid
// until the layer's next call. A single sample is a batch of one.
type tLayer interface {
	name() string
	forwardBatch(in []int16, bsz int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int)
	backwardBatch(g []int16, needInput bool, ws *batchWorkspace, slot int) []int16
	// update applies the accumulated gradients with the given fixed-point
	// learning rate and clears the scratchpads; stateless layers no-op.
	update(lrFixed int64, lrFrac uint, sr *fixed.SR)
	// gradMaxAbs returns the largest |gradient| in real units, for clipping.
	gradMaxAbs() float64
	// scaleGrads multiplies every gradient scratchpad by sFixed/2^15.
	scaleGrads(sFixed int64)
	// weightBits is the layer's weight-store footprint in bits (0 for
	// stateless layers).
	weightBits() int64
}

// Workspace panels per layer slot: the int16 pool holds five kinds per
// layer, the int64 pool two.
const (
	wsPanel   = iota // conv im2col panel (frozen conv: the padded sample)
	wsWeights        // conv weight image at the panel's row stride
	wsPix            // conv output words, pixel-major, before the CHW move
	wsOut            // forward output words
	wsGin            // narrowed input gradient
	ws16Kinds
)

const (
	wsGin64 = iota // one sample's input-gradient accumulators
	wsCol64        // one output pixel's column-gradient accumulators (conv)
	ws64Kinds
)

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
func padRows(dst, src []int16, colw, rowLen int) {
	for r := 0; r*colw < len(src); r++ {
		row := dst[r*rowLen : (r+1)*rowLen]
		copy(row, src[r*colw:(r+1)*colw])
		clear(row[colw:])
	}
}

// strided fills offs with the table {0, step, 2·step, …} the gradient kernel
// reads its b rows through.
func strided(offs []int, step int) []int {
	for p := range offs {
		offs[p] = p * step
	}
	return offs
}

// im2colPatchMajor expands bsz stacked CHW samples into the patch-major int16
// GEMM panel a trainable convolution forwards through and reads back in its
// backward pass (inference and frozen layers convolve directly, without a
// panel): row s*np+p, at stride gemmRowLen, holds output pixel p of
// sample s's receptive field in the serial loop's (ic, ky, kx) order, with
// padding taps and the row tail materialized as zero words. Each (ic, ky)
// line of a patch is one contiguous run of a source row, so the expansion is
// a clipped copy per line rather than a bounds test per tap.
func im2colPatchMajor(panel, src []int16, bsz, inC, h, w, k, stride, pad int) {
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
						copy(row[(ic*k+ky)*k+kxLo:][:n], img[(ic*h+iy0+ky)*w+ix0+kxLo:])
					}
				}
			}
		}
	}
}

// tConv is the fixed-point trainable convolution (CHW, square kernel). Its
// forward pass is one im2col expansion and one int16 GEMM for the whole
// batch; the patch-major panel is kept for the backward pass, whose
// gradient kernel reads it back row by row. A layer below the
// training boundary has no backward pass and no writer — Update and
// CopyWeightsFrom start at the boundary, Clone shares its words — so it
// carries its weights packed once for the direct convolution instead, and
// the sums are the same words either way (tensor/conv16.go).
type tConv struct {
	layerName           string
	inC, outC           int
	k, stride, pad      int
	w, b                []int16
	gw, gb              []int64
	aFrac, wFrac, gFrac uint
	bsz, inH, inW       int
	panel               []int16
	offs                []int          // the gradient kernel's row offsets
	frozen              *tensor.Conv16 // nil above the training boundary
	relu                bool           // the next layer is a ReLU run in this epilogue
}

func (c *tConv) name() string      { return c.layerName }
func (c *tConv) weightBits() int64 { return int64(len(c.w)+len(c.b)) * 16 }

func (c *tConv) outHW() (int, int) {
	return (c.inH+2*c.pad-c.k)/c.stride + 1, (c.inW+2*c.pad-c.k)/c.stride + 1
}

func (c *tConv) forwardBatch(in []int16, bsz int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int) {
	if shape[0] != c.inC {
		panic(fmt.Sprintf("qnn: %s expects %d-channel samples, got shape %v", c.layerName, c.inC, shape))
	}
	c.bsz, c.inH, c.inW = bsz, shape[1], shape[2]
	oh, ow := c.outHW()
	np := oh * ow
	// acc (B*np x outC) = panel x Wᵀ, then one narrow per output word with
	// the bias joined at the 2^(a+w) product scale, pixel-major, then moved
	// to per-sample CHW.
	n := np * c.outC
	acc := ws.get32(slot, bsz*n)
	if c.frozen != nil {
		scratch := ws.get16(slot*ws16Kinds+wsPanel, c.frozen.ScratchLen(c.inH, c.inW))
		tensor.Conv16Batch(c.frozen, acc, scratch, in, bsz, c.inH, c.inW)
	} else {
		colw := c.inC * c.k * c.k
		rowLen := gemmRowLen(colw)
		c.panel = ws.get16(slot*ws16Kinds+wsPanel, bsz*np*rowLen)
		im2colPatchMajor(c.panel, in, bsz, c.inC, c.inH, c.inW, c.k, c.stride, c.pad)
		// The weight image at the panel's row stride is rebuilt every pass —
		// a few hundred words — because Update and CopyWeightsFrom rewrite
		// c.w.
		wGemm := ws.get16(slot*ws16Kinds+wsWeights, c.outC*rowLen)
		padRows(wGemm, c.w, colw, rowLen)
		tensor.MatMul16T(acc, c.panel, wGemm, bsz*np, rowLen, c.outC)
	}
	pix := ws.get16(slot*ws16Kinds+wsPix, bsz*n)
	tensor.Narrow64(pix, acc, c.b, c.aFrac, c.wFrac, floor(c.relu))
	out := ws.get16(slot*ws16Kinds+wsOut, bsz*n)
	for s := 0; s < bsz; s++ {
		tensor.PixelsToPlanes16(out[s*n:], pix[s*n:], np, c.outC)
	}
	return out, [3]int{c.outC, oh, ow}
}

func (c *tConv) backwardBatch(g []int16, needInput bool, ws *batchWorkspace, slot int) []int16 {
	h, w := c.inH, c.inW
	oh, ow := c.outHW()
	np := oh * ow
	colw := c.inC * c.k * c.k
	rowLen := gemmRowLen(colw)
	chw := c.inC * h * w
	offs := grow(&c.offs, np+c.outC)
	pixOffs, ocOffs := strided(offs[:np], rowLen), strided(offs[np:], colw)
	var ginW []int16
	var gin, gcol []int64
	if needInput {
		ginW = ws.get16(slot*ws16Kinds+wsGin, c.bsz*chw)
		gin = ws.get64(slot*ws64Kinds+wsGin64, chw)
		gcol = ws.get64(slot*ws64Kinds+wsCol64, colw)
	}
	for s := 0; s < c.bsz; s++ {
		gs := g[s*c.outC*np : (s+1)*c.outC*np]
		// dW[oc] += Σ_pix g[oc][pix]·patch(pix): panel row pix is the pixel's
		// receptive field, padding taps as zero words that add nothing.
		panel := c.panel[s*np*rowLen:]
		for oc := 0; oc < c.outC; oc++ {
			grad := gs[oc*np : (oc+1)*np]
			tensor.AxpyPanel16(c.gw[oc*colw:(oc+1)*colw], grad, 1, panel, pixOffs)
			for _, gv := range grad {
				c.gb[oc] += int64(gv)
			}
		}
		if !needInput {
			continue
		}
		clear(gin)
		for pix := 0; pix < np; pix++ {
			// gcol = Σ_oc g[oc][pix]·W[oc], added back over the pixel's
			// receptive field.
			clear(gcol)
			tensor.AxpyPanel16(gcol, gs[pix:], np, c.w, ocOffs)
			c.col2im(gin, gcol, pix/ow, pix%ow)
		}
		dst := ginW[s*chw : (s+1)*chw]
		for i, v := range gin {
			dst[i] = narrow64(v, c.wFrac) // scale g+w -> g
		}
	}
	return ginW
}

// col2im adds one output pixel's column gradient into the sample's input
// gradient, skipping the padding taps.
func (c *tConv) col2im(gin, gcol []int64, oy, ox int) {
	h, w := c.inH, c.inW
	ix0 := ox*c.stride - c.pad
	lo, hi := max(0, -ix0), min(c.k, w-ix0)
	p := 0
	for ic := 0; ic < c.inC; ic++ {
		for ky := 0; ky < c.k; ky++ {
			iy := oy*c.stride - c.pad + ky
			if iy >= 0 && iy < h {
				base := (ic*h+iy)*w + ix0
				for kx := lo; kx < hi; kx++ {
					gin[base+kx] += gcol[p+kx]
				}
			}
			p += c.k
		}
	}
}

func (c *tConv) update(lrFixed int64, lrFrac uint, sr *fixed.SR) {
	applySR(c.w, c.gw, lrFixed, c.gFrac+c.aFrac+lrFrac-c.wFrac, sr)
	applySR(c.b, c.gb, lrFixed, c.gFrac+lrFrac-c.wFrac, sr)
}

func (c *tConv) gradMaxAbs() float64 {
	return maxAbsScaled(c.gw, c.gFrac+c.aFrac, maxAbsScaled(c.gb, c.gFrac, 0))
}

func (c *tConv) scaleGrads(sFixed int64) {
	scaleInts(c.gw, sFixed)
	scaleInts(c.gb, sFixed)
}

// tDense is the fixed-point trainable fully-connected layer. Its forward
// pass is one int16 GEMM for the whole batch (wrap-around int32
// accumulation, AVX2 VPMADDWD on amd64) and a single narrow per output.
type tDense struct {
	layerName           string
	in, out             int
	w, b                []int16
	gw, gb              []int64
	aFrac, wFrac, gFrac uint
	bsz                 int
	x                   []int16
	offs                []int // the gradient kernel's row offsets
	relu                bool  // as tConv's
}

func (d *tDense) name() string      { return d.layerName }
func (d *tDense) weightBits() int64 { return int64(len(d.w)+len(d.b)) * 16 }

func (d *tDense) forwardBatch(in []int16, bsz int, _ [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int) {
	if len(in) != bsz*d.in {
		panic(fmt.Sprintf("qnn: %s expects %d inputs per sample, got %d", d.layerName, d.in, len(in)/bsz))
	}
	d.x, d.bsz = in, bsz
	acc := ws.get32(slot, bsz*d.out)
	tensor.MatMul16T(acc, in, d.w, bsz, d.in, d.out)
	out := ws.get16(slot*ws16Kinds+wsOut, bsz*d.out)
	tensor.Narrow64(out, acc, d.b, d.aFrac, d.wFrac, floor(d.relu))
	return out, [3]int{d.out, 1, 1}
}

func (d *tDense) backwardBatch(g []int16, needInput bool, ws *batchWorkspace, slot int) []int16 {
	// Both products read rows in-words apart: the batch's activations for
	// dW, the weight rows for dX.
	offs := strided(grow(&d.offs, max(d.bsz, d.out)), d.in)
	// dW[j] += Σ_s g[s][j]·x[s], one output row at a time, so each 64-bit
	// scratchpad row stays in registers while the batch streams past it.
	for j := 0; j < d.out; j++ {
		tensor.AxpyPanel16(d.gw[j*d.in:(j+1)*d.in], g[j:], d.out, d.x, offs[:d.bsz])
	}
	for i, gv := range g[:d.bsz*d.out] {
		d.gb[i%d.out] += int64(gv)
	}
	if !needInput {
		return nil
	}
	ginW := ws.get16(slot*ws16Kinds+wsGin, d.bsz*d.in)
	gin := ws.get64(slot*ws64Kinds+wsGin64, d.in)
	for s := 0; s < d.bsz; s++ {
		// dX[s] = Σ_j g[s][j]·W[j].
		clear(gin)
		tensor.AxpyPanel16(gin, g[s*d.out:], 1, d.w, offs[:d.out])
		dst := ginW[s*d.in : (s+1)*d.in]
		for i, v := range gin {
			dst[i] = narrow64(v, d.wFrac)
		}
	}
	return ginW
}

func (d *tDense) update(lrFixed int64, lrFrac uint, sr *fixed.SR) {
	applySR(d.w, d.gw, lrFixed, d.gFrac+d.aFrac+lrFrac-d.wFrac, sr)
	applySR(d.b, d.gb, lrFixed, d.gFrac+lrFrac-d.wFrac, sr)
}

func (d *tDense) gradMaxAbs() float64 {
	return maxAbsScaled(d.gw, d.gFrac+d.aFrac, maxAbsScaled(d.gb, d.gFrac, 0))
}

func (d *tDense) scaleGrads(sFixed int64) {
	scaleInts(d.gw, sFixed)
	scaleInts(d.gb, sFixed)
}

// applySR is the stochastically-rounded SGD step on one parameter vector:
// every word with a nonzero gradient moves by Round(g·lr / 2^shift), drawing
// from the rounding stream in word order, and the scratchpad is cleared.
func applySR(w []int16, g []int64, lrFixed int64, shift uint, sr *fixed.SR) {
	for i, gv := range g {
		if gv != 0 {
			w[i] = sat16(int64(w[i]) - sr.Round(gv*lrFixed, shift))
		}
		g[i] = 0
	}
}

// tReLU is the integer rectifier; backward masks by the cached input sign.
// Folded, its comparator ran in the weighted layer before it, and the input
// it caches and passes on is that layer's clamped output.
type tReLU struct {
	layerName string
	in        []int16
	folded    bool
}

func (r *tReLU) name() string      { return r.layerName }
func (r *tReLU) weightBits() int64 { return 0 }

func (r *tReLU) forwardBatch(in []int16, _ int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int) {
	r.in = in
	if r.folded {
		return in, shape
	}
	out := ws.get16(slot*ws16Kinds+wsOut, len(in))
	for i, v := range in {
		out[i] = max(v, 0)
	}
	return out, shape
}

func (r *tReLU) backwardBatch(g []int16, needInput bool, _ *batchWorkspace, _ int) []int16 {
	if !needInput {
		return nil
	}
	for i := range g {
		if r.in[i] <= 0 {
			g[i] = 0
		}
	}
	return g
}

func (r *tReLU) update(int64, uint, *fixed.SR) {}
func (r *tReLU) gradMaxAbs() float64           { return 0 }
func (r *tReLU) scaleGrads(int64)              {}

// tPool is integer max pooling; backward routes gradients to the cached
// argmax positions (summed wide where windows overlap, one narrow).
type tPool struct {
	layerName  string
	k, stride  int
	arg        []int32 // per output word, the winning index within its sample
	bsz, inLen int
}

func (m *tPool) name() string      { return m.layerName }
func (m *tPool) weightBits() int64 { return 0 }

func (m *tPool) forwardBatch(in []int16, bsz int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int) {
	c, h, w := shape[0], shape[1], shape[2]
	if h < m.k || w < m.k {
		panic(fmt.Sprintf("qnn: %s input %v is smaller than its %dx%d window", m.layerName, [4]int{bsz, c, h, w}, m.k, m.k))
	}
	oh := (h-m.k)/m.stride + 1
	ow := (w-m.k)/m.stride + 1
	m.bsz, m.inLen = bsz, c*h*w
	outLen := c * oh * ow
	out := ws.get16(slot*ws16Kinds+wsOut, bsz*outLen)
	m.arg = ws.get32(slot, bsz*outLen)
	for s := 0; s < bsz; s++ {
		img := in[s*m.inLen : (s+1)*m.inLen]
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bi := base + oy*m.stride*w + ox*m.stride
					best, bestIdx := img[bi], int32(bi)
					for ky := 0; ky < m.k; ky++ {
						for kx := 0; kx < m.k; kx++ {
							idx := base + (oy*m.stride+ky)*w + ox*m.stride + kx
							if img[idx] > best {
								best, bestIdx = img[idx], int32(idx)
							}
						}
					}
					o := s*outLen + ch*oh*ow + oy*ow + ox
					out[o], m.arg[o] = best, bestIdx
				}
			}
		}
	}
	return out, [3]int{c, oh, ow}
}

func (m *tPool) backwardBatch(g []int16, needInput bool, ws *batchWorkspace, slot int) []int16 {
	if !needInput {
		return nil
	}
	ginW := ws.get16(slot*ws16Kinds+wsGin, m.bsz*m.inLen)
	gin := ws.get64(slot*ws64Kinds+wsGin64, m.inLen)
	outLen := len(m.arg) / m.bsz
	for s := 0; s < m.bsz; s++ {
		clear(gin)
		for o, idx := range m.arg[s*outLen : (s+1)*outLen] {
			gin[idx] += int64(g[s*outLen+o])
		}
		dst := ginW[s*m.inLen : (s+1)*m.inLen]
		for i, v := range gin {
			dst[i] = sat16(v)
		}
	}
	return ginW
}

func (m *tPool) update(int64, uint, *fixed.SR) {}
func (m *tPool) gradMaxAbs() float64           { return 0 }
func (m *tPool) scaleGrads(int64)              {}

// tFlatten is a shape change only: stacked CHW blocks are already flat per
// sample.
type tFlatten struct{ layerName string }

func (f *tFlatten) name() string      { return f.layerName }
func (f *tFlatten) weightBits() int64 { return 0 }
func (f *tFlatten) forwardBatch(in []int16, bsz int, _ [3]int, _ *batchWorkspace, _ int) ([]int16, [3]int) {
	return in, [3]int{len(in) / bsz, 1, 1}
}
func (f *tFlatten) backwardBatch(g []int16, needInput bool, _ *batchWorkspace, _ int) []int16 {
	if !needInput {
		return nil
	}
	return g
}
func (f *tFlatten) update(int64, uint, *fixed.SR) {}
func (f *tFlatten) gradMaxAbs() float64           { return 0 }
func (f *tFlatten) scaleGrads(int64)              {}

func maxAbsScaled(vs []int64, frac uint, cur float64) float64 {
	var m int64
	for _, v := range vs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	if f := float64(m) / float64(int64(1)<<frac); f > cur {
		return f
	}
	return cur
}

// scaleInts multiplies every value by sFixed/2^15, truncating — the
// pre-rounding clip step, before stochastic rounding sees the gradients.
func scaleInts(vs []int64, sFixed int64) {
	for i, v := range vs {
		vs[i] = v * sFixed >> 15
	}
}

// Network is a compiled int16 network: the layer walk, its weights as
// integer words, and — above the training boundary — the gradient
// scratchpads the quantized TD step updates them through. A Network is not
// safe for concurrent use: the workspace is shared across calls, so each
// goroutine gets its own, as the serving workers and swarm fleets do.
type Network struct {
	// Layers lists the walk's stages in order, each runnable alone.
	Layers []Layer
	// InFmt is the input activation format (TrainOptions.ActFmt).
	InFmt fixed.Format

	layers    []tLayer
	trainFrom int
	opts      TrainOptions
	sr        *fixed.SR
	// ws holds every activation and gradient panel, grown on the first
	// batch of a given size and reused from then on: a steady-state step
	// allocates nothing.
	ws   batchWorkspace
	qin  []int16
	gq   []int16
	outF []float32
}

// CompileTrainable converts a float network into the int16 engine,
// quantizing current weights and inheriting the network's training boundary
// (SetConfig topology): frozen layers run forward only and are never
// updated. LRN is rejected (the deployable NavNet does not use it — the full
// AlexNet keeps the float path).
func CompileTrainable(src *nn.Network, opts TrainOptions) (*Network, error) {
	return compile(src, opts, src.TrainFrom())
}

// compile builds the walk with layers [trainFrom, len) trainable: below the
// boundary a conv is packed once for the direct convolution and no layer
// carries a gradient scratchpad.
func compile(src *nn.Network, opts TrainOptions, trainFrom int) (*Network, error) {
	opts.setDefaults()
	tn := &Network{
		InFmt:     opts.ActFmt,
		opts:      opts,
		trainFrom: trainFrom,
		sr:        fixed.NewSR(opts.Seed),
	}
	aFrac, wFrac, gFrac := opts.ActFmt.Frac, opts.WeightFmt.Frac, opts.GradFmt.Frac
	for i, l := range src.Layers {
		// Frozen layers never see a gradient: no scratchpads.
		scratch := func(n int) []int64 {
			if i < tn.trainFrom {
				return nil
			}
			return make([]int64, n)
		}
		switch t := l.(type) {
		case *nn.Conv2D:
			if t.KH != t.KW {
				return nil, fmt.Errorf("qnn: %s has non-square kernel %dx%d", t.LayerName, t.KH, t.KW)
			}
			c := &tConv{
				layerName: t.LayerName,
				inC:       t.InC, outC: t.OutC,
				k: t.KH, stride: t.Stride, pad: t.Pad,
				w:     quantize16(t.Weight.W.Data(), opts.WeightFmt),
				b:     quantize16(t.Bias.W.Data(), opts.WeightFmt),
				gw:    scratch(t.Weight.W.Len()),
				gb:    scratch(t.Bias.W.Len()),
				aFrac: aFrac, wFrac: wFrac, gFrac: gFrac,
			}
			if i < tn.trainFrom {
				c.frozen = tensor.NewConv16(c.w, c.inC, c.outC, c.k, c.stride, c.pad)
			}
			tn.layers = append(tn.layers, c)
		case *nn.Dense:
			tn.layers = append(tn.layers, &tDense{
				layerName: t.LayerName,
				in:        t.In, out: t.Out,
				w:     quantize16(t.Weight.W.Data(), opts.WeightFmt),
				b:     quantize16(t.Bias.W.Data(), opts.WeightFmt),
				gw:    scratch(t.Weight.W.Len()),
				gb:    scratch(t.Bias.W.Len()),
				aFrac: aFrac, wFrac: wFrac, gFrac: gFrac,
			})
		case *nn.ReLU:
			tn.layers = append(tn.layers, &tReLU{layerName: t.LayerName})
		case *nn.MaxPool:
			tn.layers = append(tn.layers, &tPool{layerName: t.LayerName, k: t.K, stride: t.Stride})
		case *nn.Flatten:
			tn.layers = append(tn.layers, &tFlatten{layerName: t.LayerName})
		case *nn.LRN:
			return nil, fmt.Errorf("qnn: %s: LRN is not supported by the integer engine", t.LayerName)
		default:
			return nil, fmt.Errorf("qnn: unsupported layer type %T", l)
		}
	}
	tn.link()
	return tn, nil
}

// link folds every ReLU that directly follows a weighted layer into that
// layer's epilogue and lists the stages as Layers.
func (tn *Network) link() {
	tn.Layers = make([]Layer, len(tn.layers))
	for i, l := range tn.layers {
		tn.Layers[i] = &stage{tLayer: l, fmt: tn.InFmt}
		r, ok := l.(*tReLU)
		if !ok || i == 0 {
			continue
		}
		switch w := tn.layers[i-1].(type) {
		case *tConv:
			w.relu, r.folded = true, true
		case *tDense:
			w.relu, r.folded = true, true
		}
	}
}

func quantize16(xs []float32, f fixed.Format) []int16 {
	out := make([]int16, len(xs))
	for i, x := range xs {
		out[i] = int16(f.FromFloat(float64(x)))
	}
	return out
}

// grow reslices *buf to n elements, reallocating only when it must grow.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// quantize encodes float activations into InFmt words, round to nearest.
func (tn *Network) quantize(dst []int16, src []float32) {
	for i, v := range src {
		dst[i] = int16(tn.InFmt.FromFloat(float64(v)))
	}
}

// dequantize decodes one InFmt word.
func (tn *Network) dequantize(w int16) float32 {
	return float32(tn.InFmt.ToFloat(fixed.Word(w)))
}

// quantizeGrad encodes one float output gradient into GradFmt
// *stochastically* — so TD errors below the gradient format's half-LSB still
// inject signal in expectation. Zero draws nothing from the rounding stream.
func (tn *Network) quantizeGrad(v float32) int16 {
	if v == 0 {
		return 0
	}
	return int16(tn.opts.GradFmt.FromFloatStochastic(float64(v), tn.sr))
}

// forwardLayers runs bsz stacked samples through layers [from, to), one
// batched kernel per layer, caching per-layer state for backward.
func (tn *Network) forwardLayers(from, to int, x []int16, bsz int, shape [3]int) ([]int16, [3]int) {
	for i := from; i < to; i++ {
		x, shape = tn.layers[i].forwardBatch(x, bsz, shape, &tn.ws, i)
	}
	return x, shape
}

// backward backpropagates the stacked GradFmt output gradient of the rows
// last run through forwardLayers down to the training boundary, accumulating
// the integer gradient scratchpads.
func (tn *Network) backward(g []int16) {
	for i := len(tn.layers) - 1; i >= tn.trainFrom; i-- {
		g = tn.layers[i].backwardBatch(g, i > tn.trainFrom, &tn.ws, i)
	}
}

// Forward quantizes a float CHW observation, runs the integer pipeline as a
// batch of one caching per-layer state for Backward, and returns the
// dequantized Q-values. The returned slice is reused by the next call.
func (tn *Network) Forward(data []float32, shape [3]int) []float32 {
	return tn.forward(data, 1, shape)
}

// forward is Forward for bsz stacked samples of the given CHW shape: their
// Q-values, row-major, in the reused output slice. A sample's words do not
// depend on the batch it rides in (row independence).
func (tn *Network) forward(data []float32, bsz int, shape [3]int) []float32 {
	qin := grow(&tn.qin, len(data))
	tn.quantize(qin, data)
	x, _ := tn.forwardLayers(0, len(tn.layers), qin, bsz, shape)
	out := grow(&tn.outF, len(x))
	for i, w := range x {
		out[i] = tn.dequantize(w)
	}
	return out
}

// Backward quantizes the float output gradient stochastically and
// backpropagates it down to the training boundary. Must follow a Forward
// call on the same sample.
func (tn *Network) Backward(gradF []float32) {
	g := grow(&tn.gq, len(gradF))
	for i, v := range gradF {
		g[i] = tn.quantizeGrad(v)
	}
	tn.backward(g)
}

// Update clips the accumulated gradients to the given L-infinity limit
// (clip <= 0 disables), applies one stochastically-rounded SGD step
// w -= lr/batch · g to every trainable layer, and clears the scratchpads.
func (tn *Network) Update(lr float64, batch int, clip float64) {
	if batch <= 0 {
		panic("qnn: Update with non-positive batch size")
	}
	if clip > 0 {
		var m float64
		for i := tn.trainFrom; i < len(tn.layers); i++ {
			if v := tn.layers[i].gradMaxAbs(); v > m {
				m = v
			}
		}
		if m > clip {
			sFixed := int64(clip / m * (1 << 15))
			for i := tn.trainFrom; i < len(tn.layers); i++ {
				tn.layers[i].scaleGrads(sFixed)
			}
		}
	}
	// The conversion rounds the product before the +0.5, so no target fuses
	// the two into one multiply-add (the Go spec's rule for conversions).
	lrFixed := int64(float64(lr/float64(batch)*float64(int64(1)<<tn.opts.LRFrac)) + 0.5)
	for i := tn.trainFrom; i < len(tn.layers); i++ {
		tn.layers[i].update(lrFixed, tn.opts.LRFrac, tn.sr)
	}
}

// OutDim returns the network's output width (the action count): the last
// Dense layer's fan-out.
func (tn *Network) OutDim() int {
	for i := len(tn.layers) - 1; i >= 0; i-- {
		if d, ok := tn.layers[i].(*tDense); ok {
			return d.out
		}
	}
	return 0
}

// WeightBits is the full weight-store footprint in bits; one forward pass
// streams this many bits from the stack.
func (tn *Network) WeightBits() int64 {
	var total int64
	for _, l := range tn.layers {
		total += l.weightBits()
	}
	return total
}

// TrainableWeightBits is the footprint of the layers above the training
// boundary — the bits rewritten by every Update and re-read by every
// Backward.
func (tn *Network) TrainableWeightBits() int64 {
	var total int64
	for i := tn.trainFrom; i < len(tn.layers); i++ {
		total += tn.layers[i].weightBits()
	}
	return total
}

// layerWeights returns the mutable weight/bias words of a layer (nil for
// stateless layers).
func layerWeights(l tLayer) (w, b []int16) {
	switch t := l.(type) {
	case *tConv:
		return t.w, t.b
	case *tDense:
		return t.w, t.b
	}
	return nil, nil
}

// CopyWeightsFrom copies every trainable weight word from an
// identically-compiled network — the target-sync primitive. Frozen layers
// are skipped: a Clone shares their words with its source (see Clone), and
// Update never writes them, so there is nothing to copy.
func (tn *Network) CopyWeightsFrom(src *Network) {
	if len(tn.layers) != len(src.layers) || tn.trainFrom != src.trainFrom {
		panic("qnn: CopyWeightsFrom across different architectures")
	}
	for i := tn.trainFrom; i < len(tn.layers); i++ {
		w, b := layerWeights(tn.layers[i])
		sw, sb := layerWeights(src.layers[i])
		copy(w, sw)
		copy(b, sb)
	}
}

// WriteBack dequantizes the trainable layers' weights into the matching
// float network, so snapshots, policy publishes and float-side evaluation
// all see what the integer engine learned. Frozen layers are left alone —
// they still hold the transferred float weights at full precision.
func (tn *Network) WriteBack(dst *nn.Network) error {
	if len(dst.Layers) != len(tn.layers) {
		return fmt.Errorf("qnn: WriteBack across different architectures (%d vs %d layers)", len(dst.Layers), len(tn.layers))
	}
	for i := tn.trainFrom; i < len(tn.layers); i++ {
		w, b := layerWeights(tn.layers[i])
		if w == nil {
			continue
		}
		var weight, bias *nn.Param
		switch t := dst.Layers[i].(type) {
		case *nn.Conv2D:
			weight, bias = t.Weight, t.Bias
		case *nn.Dense:
			weight, bias = t.Weight, t.Bias
		default:
			return fmt.Errorf("qnn: WriteBack layer %d type mismatch (%T)", i, dst.Layers[i])
		}
		pw, pb := weight.W.Data(), bias.W.Data()
		if len(pw) != len(w) || len(pb) != len(b) {
			return fmt.Errorf("qnn: WriteBack layer %d size mismatch", i)
		}
		dequantize16(pw, w, tn.opts.WeightFmt)
		dequantize16(pb, b, tn.opts.WeightFmt)
		weight.MarkChanged()
		bias.MarkChanged()
	}
	return nil
}

func dequantize16(dst []float32, src []int16, f fixed.Format) {
	for i, v := range src {
		dst[i] = float32(f.ToFloat(fixed.Word(v)))
	}
}

// Clone builds the bootstrap target: a fresh instance with its own copy of
// every trainable weight word, its own gradient scratchpads, workspace and
// rounding stream — and the *same* frozen-prefix weight slices (and packed
// conv images) as tn. The sharing is safe because nothing ever writes a
// frozen word: Update and CopyWeightsFrom start at the training boundary,
// which is fixed at compile time. It makes "the online and target prefixes compute the same features"
// a fact the batched TD step can rely on rather than a coincidence of two
// copies never diverging.
func (tn *Network) Clone() *Network {
	out := &Network{
		InFmt:     tn.InFmt,
		opts:      tn.opts,
		trainFrom: tn.trainFrom,
		sr:        fixed.NewSR(tn.opts.Seed + 0x5DEECE66D),
	}
	for i, l := range tn.layers {
		words := func(ws []int16) []int16 {
			if i < tn.trainFrom {
				return ws
			}
			return append([]int16(nil), ws...)
		}
		switch t := l.(type) {
		case *tConv:
			out.layers = append(out.layers, &tConv{
				layerName: t.layerName,
				inC:       t.inC, outC: t.outC,
				k: t.k, stride: t.stride, pad: t.pad,
				w:     words(t.w),
				b:     words(t.b),
				gw:    make([]int64, len(t.gw)),
				gb:    make([]int64, len(t.gb)),
				aFrac: t.aFrac, wFrac: t.wFrac, gFrac: t.gFrac,
				frozen: t.frozen,
			})
		case *tDense:
			out.layers = append(out.layers, &tDense{
				layerName: t.layerName,
				in:        t.in, out: t.out,
				w:     words(t.w),
				b:     words(t.b),
				gw:    make([]int64, len(t.gw)),
				gb:    make([]int64, len(t.gb)),
				aFrac: t.aFrac, wFrac: t.wFrac, gFrac: t.gFrac,
			})
		case *tReLU:
			out.layers = append(out.layers, &tReLU{layerName: t.layerName})
		case *tPool:
			out.layers = append(out.layers, &tPool{layerName: t.layerName, k: t.k, stride: t.stride})
		case *tFlatten:
			out.layers = append(out.layers, &tFlatten{layerName: t.layerName})
		}
	}
	out.link()
	return out
}
