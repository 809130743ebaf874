package qnn

import (
	"fmt"
	"math"
	"slices"

	"dronerl/internal/fixed"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// The int16 engine: forward, backward and weight update executed in the
// accelerator's integer arithmetic, the regime Roy et al. study for MRAM
// training scratchpads (PAPERS.md), and the one layer walk that serving runs
// too: Compile is this walk with nothing trainable. Every kernel is batched:
// a dense layer is one int16 GEMM (tensor.MatMul16T) per minibatch and every
// conv, trainable or frozen, the direct kernel (tensor.Conv16Batch) over its
// packed weight image, which a trainable conv repacks from its words each
// pass. Only a conv's backward pass builds an im2col panel, the one its
// weight gradient reads. A single sample is a batch of one.
//
// Trained words. Both weighted layers keep their words, their 64-bit
// gradient sums and their formats in one store (words), which owns the
// update, the clip and the footprint; the Network lists every store in walk
// order, so Update, CopyWeightsFrom, WriteBack and Clone walk that list.
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
// backwardBatch accumulates the gradient sums over the whole batch and
// returns the stacked input gradient in GradFmt. Panels are staged in the
// network's grow-only workspace under the layer's slot and stay valid until
// the layer's next call. A single sample is a batch of one.
type tLayer interface {
	name() string
	forwardBatch(in []int16, bsz int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int)
	backwardBatch(g []int16, needInput bool, ws *batchWorkspace, slot int) []int16
}

// Workspace panels per layer slot: the int16 pool holds four kinds per
// layer, the int64 pool two.
const (
	wsPanel = iota // conv: the padded sample (forward), the im2col panel (backward)
	wsPix          // conv output words, pixel-major, before the CHW move
	wsOut          // forward output words
	wsGin          // narrowed input gradient
	ws16Kinds
)

const (
	wsGin64 = iota // one sample's input-gradient accumulators
	wsCol64        // one output pixel's column-gradient accumulators (conv)
	ws64Kinds
)

// words is a weighted layer's trained-word store: its weight and bias words
// and, above the training boundary, their 64-bit gradient sums (the
// "sum of weight and bias gradients" scratchpad of Section V); below it gw
// and gb are nil, since nothing there is trained. The fractions are the
// formats the layer's words and sums are read in.
type words struct {
	w, b                []int16
	gw, gb              []int64
	aFrac, wFrac, gFrac uint
}

// newWords quantizes one weighted layer's float parameters into its store,
// with gradient sums when the layer is trained.
func newWords(weight, bias *nn.Param, opts TrainOptions, trained bool) words {
	s := words{
		w:     quantize16(weight.W.Data(), opts.WeightFmt),
		b:     quantize16(bias.W.Data(), opts.WeightFmt),
		aFrac: opts.ActFmt.Frac, wFrac: opts.WeightFmt.Frac, gFrac: opts.GradFmt.Frac,
	}
	if trained {
		s.gw, s.gb = make([]int64, len(s.w)), make([]int64, len(s.b))
	}
	return s
}

func (s *words) store() *words     { return s }
func (s *words) trained() bool     { return s.gw != nil }
func (s *words) weightBits() int64 { return int64(len(s.w)+len(s.b)) * 16 }

// update applies the accumulated gradients with the given fixed-point
// learning rate and clears the sums.
func (s *words) update(lrFixed int64, lrFrac uint, sr *fixed.SR) {
	applySR(s.w, s.gw, lrFixed, s.gFrac+s.aFrac+lrFrac-s.wFrac, sr)
	applySR(s.b, s.gb, lrFixed, s.gFrac+lrFrac-s.wFrac, sr)
}

// gradMaxAbs returns the largest |gradient| in real units, for clipping.
func (s *words) gradMaxAbs() float64 {
	return maxAbsScaled(s.gw, s.gFrac+s.aFrac, maxAbsScaled(s.gb, s.gFrac, 0))
}

// scaleGrads multiplies every gradient sum by sFixed/2^15.
func (s *words) scaleGrads(sFixed int64) {
	scaleInts(s.gw, sFixed)
	scaleInts(s.gb, sFixed)
}

// clone is the store a Clone holds: the same frozen words, or a private
// copy of trained ones with fresh gradient sums.
func (s *words) clone() words {
	c := *s
	if s.trained() {
		c.w, c.b = slices.Clone(s.w), slices.Clone(s.b)
		c.gw, c.gb = make([]int64, len(s.gw)), make([]int64, len(s.gb))
	}
	return c
}

// strided fills offs with the table {0, step, 2·step, …} the gradient kernel
// reads its b rows through.
func strided(offs []int, step int) []int {
	for p := range offs {
		offs[p] = p * step
	}
	return offs
}

// im2colPatchMajor expands one CHW sample into the patch-major int16 panel a
// conv's weight gradient reads (its forward convolves directly, without a
// panel): row p, inC·k·k words wide, holds output pixel p's receptive field
// in the serial loop's (ic, ky, kx) order, with padding taps materialized as
// zero words. Each (ic, ky) line of a patch is one contiguous run of a source
// row, so the expansion is a clipped copy per line rather than a bounds test
// per tap.
func im2colPatchMajor(panel, img []int16, inC, h, w, k, stride, pad int) {
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	colw := inC * k * k
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*stride - pad
		kyLo, kyHi := max(0, -iy0), min(k, h-iy0)
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*stride - pad
			kxLo, kxHi := max(0, -ix0), min(k, w-ix0)
			row := panel[:colw]
			panel = panel[colw:]
			// Taps [kyLo,kyHi) x [kxLo,kxHi) of every channel fall inside
			// the image; a clipped patch starts from all zeros.
			n := kxHi - kxLo
			if n != k || kyHi-kyLo != k {
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

// tConv is the fixed-point trainable convolution (CHW, square kernel). Its
// forward pass is the direct convolution over its packed weight image for
// the whole batch, and it caches its input; the backward pass expands each
// sample into the patch-major panel its weight gradient reads. Below the
// training boundary the words never change, so the image is packed once and
// online, target and Clone share it; above it Update and CopyWeightsFrom
// rewrite the words, so the conv owns its image and repacks it each pass.
type tConv struct {
	words
	layerName      string
	inC, outC      int
	k, stride, pad int
	img            *tensor.Conv16
	bsz, inH, inW  int
	x              []int16 // the input rows, for backward
	offs           []int   // the gradient kernel's row offsets
	relu           bool    // the next layer is a ReLU run in this epilogue
}

// newConv builds a conv stage over its store, with the weight image packed.
func newConv(name string, inC, outC, k, stride, pad int, s words) *tConv {
	return &tConv{words: s, layerName: name, inC: inC, outC: outC, k: k, stride: stride, pad: pad,
		img: tensor.NewConv16(s.w, inC, outC, k, stride, pad)}
}

func (c *tConv) name() string { return c.layerName }

func (c *tConv) outHW() (int, int) {
	return (c.inH+2*c.pad-c.k)/c.stride + 1, (c.inW+2*c.pad-c.k)/c.stride + 1
}

func (c *tConv) forwardBatch(in []int16, bsz int, shape [3]int, ws *batchWorkspace, slot int) ([]int16, [3]int) {
	if shape[0] != c.inC {
		panic(fmt.Sprintf("qnn: %s expects %d-channel samples, got shape %v", c.layerName, c.inC, shape))
	}
	c.x, c.bsz, c.inH, c.inW = in, bsz, shape[1], shape[2]
	oh, ow := c.outHW()
	np := oh * ow
	if c.trained() {
		c.img.Pack(c.w)
	}
	// acc (B*np x outC) = Σ x·w over each pixel's receptive field, then one
	// narrow per output word with the bias joined at the 2^(a+w) product
	// scale, pixel-major, then moved to per-sample CHW.
	n := np * c.outC
	acc := ws.get32(slot, bsz*n)
	scratch := ws.get16(slot*ws16Kinds+wsPanel, c.img.ScratchLen(c.inH, c.inW))
	tensor.Conv16Batch(c.img, acc, scratch, in, bsz, c.inH, c.inW)
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
	chw := c.inC * h * w
	// Both products read rows colw words apart: the panel's pixels for dW,
	// the weight rows for the column gradient.
	offs := strided(grow(&c.offs, max(np, c.outC)), colw)
	panel := ws.get16(slot*ws16Kinds+wsPanel, np*colw)
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
		im2colPatchMajor(panel, c.x[s*chw:(s+1)*chw], c.inC, h, w, c.k, c.stride, c.pad)
		for oc := 0; oc < c.outC; oc++ {
			grad := gs[oc*np : (oc+1)*np]
			tensor.AxpyPanel16(c.gw[oc*colw:(oc+1)*colw], grad, 1, panel, offs[:np])
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
			tensor.AxpyPanel16(gcol, gs[pix:], np, c.w, offs[:c.outC])
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

// tDense is the fixed-point trainable fully-connected layer. Its forward
// pass is one int16 GEMM for the whole batch (wrap-around int32
// accumulation, AVX2 VPMADDWD on amd64) and a single narrow per output.
type tDense struct {
	words
	layerName string
	in, out   int
	bsz       int
	x         []int16
	offs      []int // the gradient kernel's row offsets
	relu      bool  // as tConv's
}

// newDense builds a dense stage over its store.
func newDense(name string, in, out int, s words) *tDense {
	return &tDense{words: s, layerName: name, in: in, out: out}
}

func (d *tDense) name() string { return d.layerName }

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
	// sum row stays in registers while the batch streams past it.
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

// applySR is the stochastically-rounded SGD step on one parameter vector:
// every word with a nonzero gradient moves by Round(g·lr / 2^shift), drawing
// from the rounding stream in word order, and the sums are cleared.
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

func (r *tReLU) name() string { return r.layerName }

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

// tPool is integer max pooling; backward routes gradients to the cached
// argmax positions (summed wide where windows overlap, one narrow).
type tPool struct {
	layerName  string
	k, stride  int
	arg        []int32 // per output word, the winning index within its sample
	bsz, inLen int
}

func (m *tPool) name() string { return m.layerName }

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

// tFlatten is a shape change only: stacked CHW blocks are already flat per
// sample.
type tFlatten struct{ layerName string }

func (f *tFlatten) name() string { return f.layerName }
func (f *tFlatten) forwardBatch(in []int16, bsz int, _ [3]int, _ *batchWorkspace, _ int) ([]int16, [3]int) {
	return in, [3]int{len(in) / bsz, 1, 1}
}
func (f *tFlatten) backwardBatch(g []int16, needInput bool, _ *batchWorkspace, _ int) []int16 {
	if !needInput {
		return nil
	}
	return g
}

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

	layers []tLayer
	// stores lists every weighted layer's trained-word store in walk order;
	// trained is its suffix above the training boundary.
	stores, trained []*words
	trainFrom       int
	opts            TrainOptions
	sr              *fixed.SR
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
// boundary no store carries gradient sums and a conv's image is never
// repacked.
func compile(src *nn.Network, opts TrainOptions, trainFrom int) (*Network, error) {
	opts.setDefaults()
	tn := &Network{
		InFmt:     opts.ActFmt,
		opts:      opts,
		trainFrom: trainFrom,
		sr:        fixed.NewSR(opts.Seed),
	}
	for i, l := range src.Layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			if t.KH != t.KW {
				return nil, fmt.Errorf("qnn: %s has non-square kernel %dx%d", t.LayerName, t.KH, t.KW)
			}
			tn.layers = append(tn.layers, newConv(t.LayerName, t.InC, t.OutC, t.KH, t.Stride, t.Pad,
				newWords(t.Weight, t.Bias, opts, i >= trainFrom)))
		case *nn.Dense:
			tn.layers = append(tn.layers, newDense(t.LayerName, t.In, t.Out,
				newWords(t.Weight, t.Bias, opts, i >= trainFrom)))
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

// link lists the stages as Layers and the weighted ones' stores, and folds
// every ReLU that directly follows a weighted layer into that layer's
// epilogue.
func (tn *Network) link() {
	tn.Layers = make([]Layer, len(tn.layers))
	frozen := 0
	for i, l := range tn.layers {
		tn.Layers[i] = &stage{tLayer: l, fmt: tn.InFmt}
		if w, ok := l.(interface{ store() *words }); ok {
			tn.stores = append(tn.stores, w.store())
			if i < tn.trainFrom {
				frozen++
			}
		}
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
	tn.trained = tn.stores[frozen:]
}

func quantize16(xs []float32, f fixed.Format) []int16 {
	out := make([]int16, len(xs))
	tensor.Quantize16(out, xs, f.Frac)
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
	tensor.Quantize16(dst, src, tn.InFmt.Frac)
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

// forwardBatch is forward over a (B, C, H, W) stack of observations.
func (tn *Network) forwardBatch(batch *tensor.Tensor) []float32 {
	sh := batch.Shape()
	if len(sh) != 4 {
		panic(fmt.Sprintf("qnn: InferBatch expects a (B, C, H, W) batch, got %v", sh))
	}
	return tn.forward(batch.Data(), sh[0], [3]int{sh[1], sh[2], sh[3]})
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
		for _, s := range tn.trained {
			m = max(m, s.gradMaxAbs())
		}
		if m > clip {
			sFixed := int64(clip / m * (1 << 15))
			for _, s := range tn.trained {
				s.scaleGrads(sFixed)
			}
		}
	}
	// The conversion rounds the product before the +0.5, so no target fuses
	// the two into one multiply-add (the Go spec's rule for conversions).
	lrFixed := int64(float64(lr/float64(batch)*float64(int64(1)<<tn.opts.LRFrac)) + 0.5)
	for _, s := range tn.trained {
		s.update(lrFixed, tn.opts.LRFrac, tn.sr)
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

// WeightBits is the full weight-store footprint in bits, weights and biases:
// what hw's price list streams from the stack per forward pass.
// TestWeightBitsMatchesModelSize and hw's price tests pin it.
func (tn *Network) WeightBits() int64 {
	var total int64
	for _, s := range tn.stores {
		total += s.weightBits()
	}
	return total
}

// CopyWeightsFrom copies every trained word from an identically-compiled
// network — the target-sync primitive. Frozen words are skipped: a Clone
// shares them with its source (see Clone), and Update never writes them, so
// there is nothing to copy.
func (tn *Network) CopyWeightsFrom(src *Network) {
	if len(tn.layers) != len(src.layers) || tn.trainFrom != src.trainFrom {
		panic("qnn: CopyWeightsFrom across different architectures")
	}
	for k, s := range tn.trained {
		copy(s.w, src.trained[k].w)
		copy(s.b, src.trained[k].b)
	}
}

// WriteBack dequantizes the trained words into the matching float network,
// so snapshots, policy publishes and float-side evaluation all see what the
// integer engine learned. Frozen layers are left alone — they still hold
// the transferred float weights at full precision.
func (tn *Network) WriteBack(dst *nn.Network) error {
	if len(dst.Layers) != len(tn.layers) {
		return fmt.Errorf("qnn: WriteBack across different architectures (%d vs %d layers)", len(dst.Layers), len(tn.layers))
	}
	stores := tn.trained
	for i := tn.trainFrom; i < len(dst.Layers); i++ {
		var weight, bias *nn.Param
		switch t := dst.Layers[i].(type) {
		case *nn.Conv2D:
			weight, bias = t.Weight, t.Bias
		case *nn.Dense:
			weight, bias = t.Weight, t.Bias
		default:
			continue
		}
		if len(stores) == 0 || weight.W.Len() != len(stores[0].w) || bias.W.Len() != len(stores[0].b) {
			return fmt.Errorf("qnn: WriteBack layer %d (%s) does not match the trained words", i, dst.Layers[i].Name())
		}
		dequantize16(weight.W.Data(), stores[0].w, tn.opts.WeightFmt)
		dequantize16(bias.W.Data(), stores[0].b, tn.opts.WeightFmt)
		weight.MarkChanged()
		bias.MarkChanged()
		stores = stores[1:]
	}
	if len(stores) != 0 {
		return fmt.Errorf("qnn: WriteBack target has %d weighted layers too few", len(stores))
	}
	return nil
}

func dequantize16(dst []float32, src []int16, f fixed.Format) {
	for i, v := range src {
		dst[i] = float32(f.ToFloat(fixed.Word(v)))
	}
}

// Clone builds the bootstrap target: a fresh instance with its own copy of
// every trained word, its own gradient sums, workspace and rounding stream —
// and the *same* frozen words and packed conv images as tn, while a
// trainable conv owns the image it repacks. The sharing is safe because
// nothing ever writes a frozen word: Update and CopyWeightsFrom start at the
// training boundary, which is fixed at compile time. It makes "the online
// and target prefixes compute the same features" a fact the batched TD step
// can rely on rather than a coincidence of two copies never diverging.
func (tn *Network) Clone() *Network {
	out := &Network{
		InFmt:     tn.InFmt,
		opts:      tn.opts,
		trainFrom: tn.trainFrom,
		sr:        fixed.NewSR(tn.opts.Seed + 0x5DEECE66D),
	}
	for _, l := range tn.layers {
		switch t := l.(type) {
		case *tConv:
			c := newConv(t.layerName, t.inC, t.outC, t.k, t.stride, t.pad, t.clone())
			if !t.trained() {
				c.img = t.img
			}
			l = c
		case *tDense:
			l = newDense(t.layerName, t.in, t.out, t.clone())
		case *tReLU:
			l = &tReLU{layerName: t.layerName}
		case *tPool:
			l = &tPool{layerName: t.layerName, k: t.k, stride: t.stride}
		}
		out.layers = append(out.layers, l) // a tFlatten holds no state
	}
	out.link()
	return out
}
