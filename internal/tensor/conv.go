package tensor

import "fmt"

// The float convolution's forward pass is an implicit GEMM: no im2col
// panel. Each sample is copied once into zero-padded planes split by stride
// phase — for stride s, plane (ch, py, px) holds the padded input's rows py,
// py+s, … and columns px, px+s, … — so on a grid as wide as a plane (wq)
// each tap (ch, ky, kx) reads one contiguous run of the planes. panelRowsVec,
// the panel body of every dense GEMM, reads those runs through a tap-offset
// table in place of p·n; the bias scatter (biasRowsAVX where ow is whole
// 8-wide blocks) drops each grid row's columns past ow. Per output element
// the products arrive in ascending (ch, ky, kx) order through one
// accumulator, padding taps add w·(+0), gemmBlockK panel splits store and
// reload exactly, and the bias comes last: the im2col-panel GEMM's schedule,
// so its bits (TestConvForwardMatchesNaive).
//
// The backward pass reads the same planes, so it builds no im2col panel
// either (TestConvBackwardMatchesNaive). Each sample's output gradient goes
// on the same n-wide grid, zero past ow. The weight gradient runs
// transposed, Gᵀ += Xᵀ·gᵀ: tap q's row of X is the planes' n-long run at
// offs[q], read in place through the panel kernel's row table, and the
// vector lanes span the output channels. Each dW element takes its products
// in ascending (sample, oy, ox) order from its current value; the grid's
// extra positions add exact zeros, which leave every sum that does not start
// at -0 unchanged (for finite inputs). The input gradient multiplies Wᵀ into
// each sample's grid and adds every tap's row, one n-long run, into zeroed
// gradient planes, taps in descending (ch, ky, kx) order: within a stride
// phase a later tap reaches an element from an earlier output position, so
// each element takes its contributions in ascending patch order, as a col2im
// scatter does. One inverse stride-phase pass gathers the planes into NCHW.

// ConvScratch is the workspace of ConvInto and ConvBackward: the planes,
// the grid sums and the tap-offset table, rebuilt only when the geometry
// changes, and the backward's gradient panels. The zero value is ready; it
// is not safe for concurrent use.
type ConvScratch struct {
	// Slots: 0 planes, 1 grid, 2 gᵀ, 3 Gᵀ, 4 bias sums, 5 dCols, 6
	// dPlanes, 7 input gradient.
	arena Arena
	key   [7]int // c, h, w, kh, kw, stride, pad that the fields below serve
	offs  []int  // offs[(ch·kh+ky)·kw+kx]: the tap's run within a sample's planes
	// A plane is hq×wq and a sample's planes plen long. A grid of n has an
	// output row per wq, rounded up to whole 8-wide vector blocks; the
	// planes' slack keeps those last reads inside the sample.
	hq, wq, plen, n int
	planes, grid    []float32 // the latest ConvInto's (B, plen) and (B, outC, n)
	// The latest ConvBackward's patch gradients (B, c·kh·kw, n) and
	// gradient planes (B, plen); it reuses grid for the output gradient.
	dCols, dPlanes []float32
}

// ConvInto writes out (B, outC, oh, ow) = weight (outC, c·kh·kw) ⊛ in
// (B, c, h, w) + bias (outC), the convolution with the given kernel, stride
// and zero padding, staging through ws. A batch of at least parallelFlops
// multiply-adds (the E2E learner's batch-32 convs) fans out over samples.
func ConvInto(out, in, weight, bias *Tensor, kh, kw, stride, pad int, ws *ConvScratch) {
	if in.Rank() != 4 || weight.Rank() != 2 || out.Rank() != 4 {
		panic("tensor: ConvInto requires NCHW input and output and a rank-2 weight")
	}
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh, ow := ConvOutDim(h, kh, stride, pad), ConvOutDim(w, kw, stride, pad)
	outC, k := weight.Dim(0), weight.Dim(1)
	if k != c*kh*kw || bias.Len() != outC || oh <= 0 || ow <= 0 ||
		out.Dim(0) != b || out.Dim(1) != outC || out.Dim(2) != oh || out.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: ConvInto shape mismatch %v = %v ⊛ %v (kernel %dx%d stride %d pad %d)",
			out.shape, weight.shape, in.shape, kh, kw, stride, pad))
	}
	if key := [7]int{c, h, w, kh, kw, stride, pad}; key != ws.key {
		ws.key = key
		ws.hq, ws.wq = (h+2*pad+stride-1)/stride, (w+2*pad+stride-1)/stride
		raw := (oh-1)*ws.wq + ow
		ws.n = (raw + 7) &^ 7
		ws.plen = c*stride*stride*ws.hq*ws.wq + ws.n - raw
		ws.offs = ws.offs[:0]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					plane := (ch*stride+ky%stride)*stride + kx%stride
					ws.offs = append(ws.offs, plane*ws.hq*ws.wq+ky/stride*ws.wq+kx/stride)
				}
			}
		}
	}
	ws.planes = ws.arena.Get(0, b, ws.plen).data
	ws.grid = ws.arena.Get(1, b, outC, ws.n).data
	if serialRows(b, b*outC*k*ws.n) {
		ws.samples(out, in, weight, bias, 0, b)
	} else {
		parallelRows(b, func(lo, hi int) { ws.samples(out, in, weight, bias, lo, hi) })
	}
}

// samples runs ConvInto for samples [lo, hi): stage, multiply, scatter.
func (ws *ConvScratch) samples(out, in, weight, bias *Tensor, lo, hi int) {
	c, h, w, stride, pad := ws.key[0], ws.key[1], ws.key[2], ws.key[5], ws.key[6]
	outC, k, oh, ow := out.Dim(1), weight.Dim(1), out.Dim(2), out.Dim(3)
	n, wq := ws.n, ws.wq
	for s := lo; s < hi; s++ {
		x := ws.planes[s*ws.plen : (s+1)*ws.plen]
		phasePlanes(x, in.data[s*c*h*w:(s+1)*c*h*w], c, h, w, stride, pad, ws.hq, wq, false)
		g := ws.grid[s*outC*n : (s+1)*outC*n]
		clear(g)
		for p0 := 0; p0 < k; p0 += gemmBlockK {
			panelRowsVec(g, weight.data[p0:], k, 1, x, ws.offs[p0:min(p0+gemmBlockK, k)], n, outC)
		}
		for oc := 0; oc < outC; oc++ {
			dst := out.data[(s*outC+oc)*oh*ow : (s*outC+oc+1)*oh*ow]
			sums := g[oc*n : (oc+1)*n]
			bv := bias.data[oc]
			if useFloatAVX && ow%8 == 0 {
				biasRowsAVX(&dst[0], &sums[0], oh, ow, wq, bv)
				continue
			}
			for oy := 0; oy < oh; oy++ {
				src := sums[oy*wq : oy*wq+ow]
				d := dst[oy*ow:][:len(src)]
				for i, v := range src {
					d[i] = v + bv
				}
			}
		}
	}
}

// ConvBackward is the backward pass of the latest ConvInto through ws, given
// grad (B, outC, oh, ow), its output gradient, and weight, its weights. It
// accumulates dw (outC, c·kh·kw) and db (outC) — db one partial sum per
// sample, in sample order — and, if inputGrad, returns the input gradient
// (B, c, h, w), ws's until its next ConvBackward.
func ConvBackward(dw, db, grad, weight *Tensor, ws *ConvScratch, inputGrad bool) *Tensor {
	if ws.plen == 0 {
		panic("tensor: ConvBackward before ConvInto")
	}
	c, h, w, stride, pad := ws.key[0], ws.key[1], ws.key[2], ws.key[5], ws.key[6]
	oh, ow := ConvOutDim(h, ws.key[3], stride, pad), ConvOutDim(w, ws.key[4], stride, pad)
	b, outC, colw, n, wq := len(ws.planes)/ws.plen, dw.Dim(0), len(ws.offs), ws.n, ws.wq
	if grad.Rank() != 4 || grad.Dim(0) != b || grad.Dim(1) != outC || grad.Dim(2) != oh || grad.Dim(3) != ow ||
		dw.Rank() != 2 || dw.Dim(1) != colw || db.Len() != outC || !shapeEqual(weight.shape, dw.shape) || len(ws.grid) != b*outC*n {
		panic(fmt.Sprintf("tensor: ConvBackward gradients %v, %v, %v and weight %v do not fit the latest ConvInto (B %d, out %dx%d, c·kh·kw %d)",
			grad.shape, dw.shape, db.shape, weight.shape, b, oh, ow, colw))
	}
	gT := ws.arena.Get(2, b, n, outC).data
	for s := 0; s < b; s++ {
		g := gT[s*n*outC : (s+1)*n*outC]
		for oy := 0; oy < oh; oy++ {
			transposeInto(g[oy*wq*outC:], outC, grad.data[(s*outC*oh+oy)*ow:], oh*ow, outC, ow)
			end := (oy + 1) * wq
			if oy == oh-1 {
				end = n
			}
			clear(g[(oy*wq+ow)*outC : end*outC])
		}
	}
	wT := ws.arena.Get(3, colw, outC).data
	transposeInto(wT, outC, dw.data, colw, outC, colw)
	if serialRows(colw, b*colw*n*outC) {
		ws.tapGrads(wT, gT, b, outC, 0, colw)
	} else {
		parallelRows(colw, func(lo, hi int) { ws.tapGrads(wT, gT, b, outC, lo, hi) })
	}
	transposeInto(dw.data, colw, wT, outC, colw, outC)
	// db: each sample's sums 1ᵀ·gᵀ, a vector lane per channel.
	bsum, offs, one := ws.arena.Get(4, outC).data, panelOffs(outC, n), [1]float32{1}
	for s := 0; s < b; s++ {
		clear(bsum)
		for p0 := 0; p0 < n; p0 += gemmBlockK {
			axpyPanel(bsum, one[:], 0, gT[(s*n+p0)*outC:], offs[:min(gemmBlockK, n-p0)], outC)
		}
		for oc, v := range bsum {
			db.data[oc] += v
		}
	}
	if !inputGrad {
		return nil
	}
	ws.dCols = ws.arena.Get(5, b, colw, n).data
	ws.dPlanes = ws.arena.Get(6, b, ws.plen).data
	din := ws.arena.Get(7, b, c, h, w)
	if serialRows(b, b*colw*n*outC) {
		ws.inputGrads(din, gT, weight, 0, b)
	} else {
		parallelRows(b, func(lo, hi int) { ws.inputGrads(din, gT, weight, lo, hi) })
	}
	return din
}

// tapGrads accumulates rows [lo, hi) of Gᵀ (c·kh·kw, outC) += Xᵀ·gᵀ over
// the samples in order, tap q's coefficients read in place from the run of
// the sample's planes at offs[q].
func (ws *ConvScratch) tapGrads(wT, gT []float32, b, outC, lo, hi int) {
	n := ws.n
	offs := panelOffs(outC, n)
	for s := 0; s < b; s++ {
		x, g := ws.planes[s*ws.plen:], gT[s*n*outC:]
		for p0 := 0; p0 < n; p0 += gemmBlockK {
			o := offs[:min(gemmBlockK, n-p0)]
			q := lo
			if useFloatAVX {
				for ; q+3 < hi; q += 4 {
					axpyPanel4AVX(&wT[q*outC], &x[p0], &g[p0*outC], &ws.offs[q], &o[0], 1, len(o), outC)
				}
			}
			for ; q < hi; q++ {
				axpyPanel(wT[q*outC:(q+1)*outC], x[ws.offs[q]+p0:], 1, g[p0*outC:], o, outC)
			}
		}
	}
}

// inputGrads writes samples [lo, hi) of din: the sample's gradient grid,
// channel-major, multiplies into its patch gradients dCols = Wᵀ·g, whose tap
// rows are added into its zeroed gradient planes, taps descending, which
// phasePlanes gathers into NCHW.
func (ws *ConvScratch) inputGrads(din *Tensor, gT []float32, weight *Tensor, lo, hi int) {
	c, h, w, outC, colw, n := ws.key[0], ws.key[1], ws.key[2], weight.Dim(0), len(ws.offs), ws.n
	for s := lo; s < hi; s++ {
		g, dc := ws.grid[s*outC*n:(s+1)*outC*n], ws.dCols[s*colw*n:(s+1)*colw*n]
		transposeInto(g, n, gT[s*n*outC:], outC, n, outC)
		clear(dc)
		accumRowsVec(dc, weight.data, 1, colw, g, outC, n, 0, colw)
		x := ws.dPlanes[s*ws.plen : (s+1)*ws.plen]
		clear(x)
		for q := colw - 1; q >= 0; q-- {
			saxpyRow(x[ws.offs[q]:][:n], dc[q*n:], 1) // 1·v is v: a plain add
		}
		phasePlanes(x, din.data[s*c*h*w:(s+1)*c*h*w], c, h, w, ws.key[5], ws.key[6], ws.hq, ws.wq, true)
	}
}

// phasePlanes moves one CHW sample chw between its NCHW layout and c·s²
// stride-phase planes of hq×wq: plane (ch, py, px) row i column j is the
// zero-padded input at (i·s+py-pad, j·s+px-pad), zero outside the input.
// Staging (gather false) writes every element of planes, the slack past them
// included; gathering (gather true) reads every input element back out.
func phasePlanes(planes, chw []float32, c, h, w, s, pad, hq, wq int, gather bool) {
	if !gather {
		clear(planes)
	}
	// first returns the first input index of phase p in a padded axis and
	// its index within the phase: input i is padded i+pad = (i+pad)/s·s + p.
	first := func(p int) (i0, at int) {
		i0 = ((p-pad)%s + s) % s
		return i0, (i0 + pad) / s
	}
	for py := 0; py < s; py++ {
		y0, row0 := first(py)
		for px := 0; px < s; px++ {
			x0, col0 := first(px)
			if x0 >= w {
				continue
			}
			cnt := (w - x0 + s - 1) / s
			for ch := 0; ch < c; ch++ {
				at := ((ch*s+py)*s+px)*hq*wq + row0*wq + col0
				for y := y0; y < h; y, at = y+s, at+wq {
					row, in := planes[at:at+cnt], chw[(ch*h+y)*w+x0:]
					switch {
					case gather && s == 1:
						copy(in, row)
					case gather:
						for j, v := range row {
							in[j*s] = v
						}
					case s == 1:
						copy(row, in)
					default:
						for j := range row {
							row[j] = in[j*s]
						}
					}
				}
			}
		}
	}
}
