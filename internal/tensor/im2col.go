package tensor

// Im2ColInto expands a batch of NCHW inputs into dst, the stacked matrix of
// shape (B*oh*ow, c*kh*kw) that GEMM-based convolution multiplies: row
// b*oh*ow + oy*ow + ox holds the kh*kw*c input patch feeding output (oy, ox)
// of sample b, zero padding applied. Every element of dst is written, so a
// reused workspace needs no clearing. The paper's accelerator expands its
// CONV inputs this way for backpropagation (Section V.B, "we use GEMM [16]
// ... and expands the inputs to each CONV layers in a 2D matrix"); the float
// layers do not: both passes work in place on stride-phase planes (ConvInto,
// ConvBackward). The expansion stays as a reference and benchmark probe.
func Im2ColInto(dst, in *Tensor, kh, kw, stride, pad int) {
	if in.Rank() != 4 {
		panic("tensor: Im2ColInto requires an NCHW rank-4 tensor")
	}
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	colw := c * kh * kw
	if dst.Rank() != 2 || dst.Dim(0) != b*oh*ow || dst.Dim(1) != colw {
		panic("tensor: Im2ColInto destination shape mismatch")
	}
	np := oh * ow
	for s := 0; s < b; s++ {
		im2colSample(dst.data[s*np*colw:(s+1)*np*colw], in.data[s*c*h*w:(s+1)*c*h*w],
			c, h, w, kh, kw, stride, pad)
	}
}

// im2colSample writes the im2col expansion of one CHW sample into od, which
// must hold oh*ow*c*kh*kw values. Every element is written. It walks one
// output row and one input row at a time, so a patch's (ch, ky) kx-run is a
// plain copy wherever it lies inside the input; only the padding fringes
// test each tap.
func im2colSample(od, id []float32, c, h, w, kh, kw, stride, pad int) {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	colw := c * kh * kw
	for oy := 0; oy < oh; oy++ {
		rows := od[oy*ow*colw : (oy+1)*ow*colw]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				q := (ch*kh + ky) * kw
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					for ox := 0; ox < ow; ox++ {
						clear(rows[ox*colw+q : ox*colw+q+kw])
					}
					continue
				}
				src := id[(ch*h+iy)*w : (ch*h+iy+1)*w]
				for ox := 0; ox < ow; ox++ {
					ix := ox*stride - pad
					if ix >= 0 && ix+kw <= w {
						run := src[ix : ix+kw]
						dst := rows[ox*colw+q:][:len(run)]
						for kx, v := range run {
							dst[kx] = v
						}
						continue
					}
					dst := rows[ox*colw+q:][:kw]
					for kx := range dst {
						if ix+kx >= 0 && ix+kx < w {
							dst[kx] = src[ix+kx]
						} else {
							dst[kx] = 0
						}
					}
				}
			}
		}
	}
}

// ConvOutDim returns the spatial output size of a convolution with the given
// input size, kernel, stride and padding.
func ConvOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
