package tensor

// Direct int16 convolution under int16.go's accumulation contract: no im2col
// panel and no per-output horizontal reduction. Each sample is copied once
// into a zero-padded [ic][h+2p][w+2p+slack] buffer, the weights are packed
// once as [ic][ky][kx-pair][oc][2], and an output pixel is, for every pair of
// horizontally adjacent taps, acc[oc] += x0·w0[oc] + x1·w1[oc] in wrap-around
// int32 — on amd64 one VPBROADCASTD of the two taps, one VPMADDWD against 8
// output channels' weight pairs and one VPADDD. An odd kernel pairs its last
// tap with a zero weight, so that pair reads one word past the k-th tap:
// slack (one word per row when k is odd) makes the buffer own that word, and
// the zero weight makes its value irrelevant. Padding taps are zero words, as
// in the panel. Addition mod 2^32 is associative and commutative, so every
// accumulator is the word the panel GEMM (im2col rows through Dot16) leaves,
// whatever the order: TestConv16MatchesPanelGEMM sweeps asm, portable and
// panel against each other.

// Conv16 is one convolution layer's geometry (CHW, square kernel) and packed
// weight image. It is immutable after NewConv16 and may be shared.
type Conv16 struct {
	inC, outC, k, stride, pad int
	w                         []int16
}

// NewConv16 packs the (outC, inC·k·k) row-major weight matrix w.
func NewConv16[T ~int16](w []T, inC, outC, k, stride, pad int) *Conv16 {
	pairs := (k + 1) / 2
	c := &Conv16{inC: inC, outC: outC, k: k, stride: stride, pad: pad,
		w: make([]int16, inC*k*pairs*outC*2)}
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					c.w[(((ic*k+ky)*pairs+kx/2)*outC+oc)*2+kx%2] = int16(w[((oc*inC+ic)*k+ky)*k+kx])
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
func Conv16Batch[T ~int16](c *Conv16, acc []int32, scratch []int16, src []T, bsz, h, w int) {
	oh, ow := c.OutHW(h, w)
	if oh <= 0 || ow <= 0 {
		return
	}
	scratch = scratch[:c.ScratchLen(h, w)]
	chw, n := c.inC*h*w, oh*ow*c.outC
	for s := 0; s < bsz; s++ {
		padCHW(scratch, src[s*chw:(s+1)*chw], c.inC, h, w, c.pad, c.rowLen(w))
		c.convolve(acc[s*n:(s+1)*n], scratch, h, w)
	}
}

// padCHW writes one CHW sample into dst as [ic][h+2·pad][rowLen] with zero
// borders (and zero slack), overwriting every word.
func padCHW[T ~int16](dst []int16, src []T, inC, h, w, pad, rowLen int) {
	hp := h + 2*pad
	for ic := 0; ic < inC; ic++ {
		plane := dst[ic*hp*rowLen : (ic+1)*hp*rowLen]
		clear(plane[:pad*rowLen])
		clear(plane[(pad+h)*rowLen:])
		for y := 0; y < h; y++ {
			row := plane[(pad+y)*rowLen : (pad+y+1)*rowLen]
			clear(row[:pad])
			clear(row[pad+w:])
			body := row[pad : pad+w]
			for i, v := range src[(ic*h+y)*w:][:w] {
				body[i] = int16(v)
			}
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
