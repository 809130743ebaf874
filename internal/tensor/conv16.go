package tensor

// Direct int16 convolution under int16.go's accumulation contract: no im2col
// panel and no per-output horizontal reduction. Samples are staged through
// one [ic][h+2p][w+2p+slack] buffer whose borders and slack are zeroed once
// per batch: each sample then overwrites only the interior rows, one copy
// per row. The weights are packed once as [ic][ky][kx-pair][oc][2], and an
// output pixel is, for every pair of horizontally adjacent taps, acc[oc] +=
// x0·w0[oc] + x1·w1[oc] in wrap-around int32 — on amd64 one VPBROADCASTD of
// the two taps, one VPMADDWD against 8 output channels' weight pairs and one
// VPADDD. The asm runs four adjacent output pixels per pass, so one load of
// a weight pair serves four pixels (four broadcasts, four VPMADDWDs, four
// accumulators), and it walks a row once per 16 output channels: the four
// broadcasts feed both 8-channel groups' weight pairs, eight accumulators in
// all. The ow%4 pixels left run one pixel and one group at a time. An odd
// kernel pairs its last tap with a zero weight, so that pair reads one word
// past the k-th tap: slack (one word per row when k is odd) makes the buffer
// own that word, and the zero weight makes its value irrelevant. Padding
// taps are zero words, as in the panel.
// Addition mod 2^32 is associative and commutative, so every accumulator is
// the word the panel GEMM (im2col rows reduced against the weight rows)
// leaves, whatever the order: TestConv16MatchesPanelGEMM sweeps asm,
// portable and panel against each other.

// Conv16 is one convolution layer's geometry (CHW, square kernel) and packed
// weight image. It is immutable after NewConv16 and may be shared.
type Conv16 struct {
	inC, outC, k, stride, pad int
	w                         []int16
}

// NewConv16 packs the (outC, inC·k·k) row-major weight matrix w.
func NewConv16(w []int16, inC, outC, k, stride, pad int) *Conv16 {
	pairs := (k + 1) / 2
	c := &Conv16{inC: inC, outC: outC, k: k, stride: stride, pad: pad,
		w: make([]int16, inC*k*pairs*outC*2)}
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					c.w[(((ic*k+ky)*pairs+kx/2)*outC+oc)*2+kx%2] = w[((oc*inC+ic)*k+ky)*k+kx]
				}
			}
		}
	}
	return c
}

// OutHW returns the output height and width for an (h, w) input.
func (c *Conv16) OutHW(h, w int) (oh, ow int) {
	return (h+2*c.pad-c.k)/c.stride + 1, (w+2*c.pad-c.k)/c.stride + 1
}

func (c *Conv16) rowLen(w int) int { return w + 2*c.pad + c.k&1 }

// ScratchLen is the size of the padded-sample buffer Conv16Batch stages
// through for (h, w) inputs.
func (c *Conv16) ScratchLen(h, w int) int { return c.inC * (h + 2*c.pad) * c.rowLen(w) }

// Conv16Batch convolves bsz stacked CHW samples of src, one at a time through
// scratch (at least ScratchLen words; contents overwritten), and leaves
// acc[(s·oh·ow+p)·outC+oc] = Σ x·w over output pixel p's receptive field —
// the (pixel, oc) layout MatMul16T over a patch-major panel produces.
// scratch is zeroed once per call and each sample's rows are then copied
// into its interior: the kernels only read scratch, so the borders and the
// slack stay zero for every sample.
func Conv16Batch(c *Conv16, acc []int32, scratch, src []int16, bsz, h, w int) {
	oh, ow := c.OutHW(h, w)
	if oh <= 0 || ow <= 0 {
		return
	}
	scratch = scratch[:c.ScratchLen(h, w)]
	clear(scratch)
	chw, n := c.inC*h*w, oh*ow*c.outC
	for s := 0; s < bsz; s++ {
		c.stage(scratch, src[s*chw:(s+1)*chw], h, w)
		c.convolve(acc[s*n:(s+1)*n], scratch, h, w)
	}
}

// stage copies one CHW sample's rows into the interior of the padded
// [ic][h+2·pad][rowLen] buffer dst, leaving its borders and slack as they
// are.
func (c *Conv16) stage(dst, src []int16, h, w int) {
	rowLen, hp := c.rowLen(w), h+2*c.pad
	for ic := 0; ic < c.inC; ic++ {
		for y := 0; y < h; y++ {
			copy(dst[(ic*hp+c.pad+y)*rowLen+c.pad:][:w], src[(ic*h+y)*w:][:w])
		}
	}
}

// convolve runs one padded sample, an output row at a time.
func (c *Conv16) convolve(acc []int32, x []int16, h, w int) {
	oh, ow := c.OutHW(h, w)
	rowLen := c.rowLen(w)
	plane := (h + 2*c.pad) * rowLen
	for oy := 0; oy < oh; oy++ {
		conv16Row(c, acc[oy*ow*c.outC:(oy+1)*ow*c.outC], x[oy*c.stride*rowLen:], ow, rowLen, plane)
	}
}

// conv16RowGo is the portable kernel, and the only one when outC is not a
// multiple of the asm's 8 lanes: the same packed weights and padded rows, the
// same pairwise sums, bit for bit.
func conv16RowGo(c *Conv16, dst []int32, x []int16, ow, rowLen, plane int) {
	pairs := (c.k + 1) / 2
	clear(dst)
	for ox := 0; ox < ow; ox++ {
		out := dst[ox*c.outC : (ox+1)*c.outC]
		wp := c.w
		for ic := 0; ic < c.inC; ic++ {
			for ky := 0; ky < c.k; ky++ {
				line := x[ic*plane+ky*rowLen+ox*c.stride:][:2*pairs]
				for p := 0; p < pairs; p++ {
					x0, x1 := int32(line[2*p]), int32(line[2*p+1])
					wrow := wp[:2*len(out)]
					wp = wp[2*len(out):]
					for oc := range out {
						out[oc] += x0*int32(wrow[2*oc]) + x1*int32(wrow[2*oc+1])
					}
				}
			}
		}
	}
}
