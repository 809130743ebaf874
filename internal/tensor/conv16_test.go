package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// panelConv16 is the convolution the direct kernel replaced, spelled out:
// gather each output pixel's receptive field in (ic, ky, kx) order with
// padding taps as zero words — one im2col panel row — and reduce it against
// the weight row with dot16Scalar.
func panelConv16(wts, src []int16, inC, outC, k, stride, pad, h, w int) []int32 {
	oh, ow := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
	acc := make([]int32, oh*ow*outC)
	colw := inC * k * k
	patch := make([]int16, colw)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			clear(patch)
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							patch[(ic*k+ky)*k+kx] = src[(ic*h+iy)*w+ix]
						}
					}
				}
			}
			for oc := 0; oc < outC; oc++ {
				acc[(oy*ow+ox)*outC+oc] = dot16Scalar(patch, wts[oc*colw:(oc+1)*colw])
			}
		}
	}
	return acc
}

// conv16Portable runs the padded sample through the portable kernel only.
func conv16Portable(c *Conv16, acc []int32, x []int16, h, w int) {
	oh, ow := c.OutHW(h, w)
	rowLen := c.rowLen(w)
	for oy := 0; oy < oh; oy++ {
		conv16RowGo(c, acc[oy*ow*c.outC:(oy+1)*ow*c.outC], x[oy*c.stride*rowLen:], ow, rowLen, (h+2*c.pad)*rowLen)
	}
}

// TestConv16MatchesPanelGEMM is the unconditional identity gate for the
// direct convolution: the dispatched kernel (VPMADDWD over broadcast tap
// pairs where the host has AVX2 and outC is a multiple of 8), the portable
// kernel and the im2col-panel reduction agree word for word over kernel sizes
// 1-7, strides 1-3, pads 0-3, 1-9 input channels, 8/16/24 and 5 output
// channels, on full-range words whose sums wrap, at image sizes from a single
// output pixel up. The scratch buffer is sliced to exactly ScratchLen with its
// capacity clipped, so a read past the buffer panics in the portable kernel;
// every slack word is set to a canary before the kernels run — the last pair
// of an odd kernel reads it, and only the zero weight packed beside the k-th
// tap keeps it out of the sums — and must still hold it afterwards.
func TestConv16MatchesPanelGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const canary = 0x5a5a
	for k := 1; k <= 7; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for inC := 1; inC <= 9; inC++ {
					for _, outC := range []int{8, 16, 24, 5} {
						// The smallest image the kernel fits (one output
						// pixel when the stride allows no second) and a
						// ragged larger one.
						hMin := max(1, k-2*pad)
						for _, hw := range [][2]int{{hMin, hMin}, {hMin + 1 + rng.Intn(4), hMin + rng.Intn(6)}} {
							h, w := hw[0], hw[1]
							wts := randInt16s(rng, outC*inC*k*k)
							src := randInt16s(rng, 2*inC*h*w)
							c := NewConv16(wts, inC, outC, k, stride, pad)
							oh, ow := c.OutHW(h, w)
							n := oh * ow * outC

							got := make([]int32, 2*n)
							scratch := make([]int16, c.ScratchLen(h, w)+8)
							Conv16Batch(c, got, scratch[:c.ScratchLen(h, w):c.ScratchLen(h, w)], src, 2, h, w)
							for s := 0; s < 2; s++ {
								want := panelConv16(wts, src[s*inC*h*w:(s+1)*inC*h*w], inC, outC, k, stride, pad, h, w)

								x := scratch[:c.ScratchLen(h, w):c.ScratchLen(h, w)]
								padCHW(x, src[s*inC*h*w:(s+1)*inC*h*w], inC, h, w, pad, c.rowLen(w))
								if k&1 == 1 {
									for r := 0; r < inC*(h+2*pad); r++ {
										x[(r+1)*c.rowLen(w)-1] = canary
									}
								}
								direct := make([]int32, n)
								c.convolve(direct, x, h, w)
								portable := make([]int32, n)
								conv16Portable(c, portable, x, h, w)
								for i := range want {
									if got[s*n+i] != want[i] || direct[i] != want[i] || portable[i] != want[i] {
										t.Fatalf("k%d s%d p%d inC%d outC%d %dx%d sample %d word %d: batch %d, dispatched %d, portable %d, panel GEMM %d",
											k, stride, pad, inC, outC, h, w, s, i, got[s*n+i], direct[i], portable[i], want[i])
									}
								}
								if k&1 == 1 {
									for r := 0; r < inC*(h+2*pad); r++ {
										if x[(r+1)*c.rowLen(w)-1] != canary {
											t.Fatalf("k%d: slack word of padded row %d was written", k, r)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConv16Wraparound pins the overflow semantics on the direct kernel as
// TestDot16Wraparound does on the dot product: a tap pair of (-32768, -32768)
// against the same weights is the one input VPMADDWD defines specially
// (0x80000000, exactly the wrapped sum), and further products keep adding mod
// 2^32 on top of it.
func TestConv16Wraparound(t *testing.T) {
	for _, outC := range []int{8, 3} {
		wts := make([]int16, outC*4)
		for oc := 0; oc < outC; oc++ {
			copy(wts[oc*4:], []int16{math.MinInt16, math.MinInt16, 5, math.MinInt16})
		}
		src := []int16{math.MinInt16, math.MinInt16, 3, math.MinInt16}
		c := NewConv16(wts, 1, outC, 2, 1, 0)
		acc := make([]int32, outC)
		Conv16Batch(c, acc, make([]int16, c.ScratchLen(2, 2)), src, 1, 2, 2)
		// 2^31 + 15 + 2^30 mod 2^32.
		want := int32(math.MinInt32 + 15 + 1<<30)
		for oc, got := range acc {
			if got != want {
				t.Errorf("outC %d: acc[%d] = %d, want %d", outC, oc, got, want)
			}
		}
	}
}
