package tensor

import (
	"encoding/binary"
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

// checkConv16 convolves two random full-range samples of one geometry
// through Conv16Batch, the dispatched row kernel and the portable one, and
// holds all three to the im2col-panel reduction word for word. The scratch
// buffer is sliced to exactly ScratchLen with its capacity clipped, so a
// read past the buffer panics in the portable kernel; every slack word is
// set to a canary before the kernels run — the last pair of an odd kernel
// reads it, and only the zero weight packed beside the k-th tap keeps it out
// of the sums — and must still hold it afterwards.
func checkConv16(t *testing.T, rng *rand.Rand, k, stride, pad, inC, outC, h, w int) {
	t.Helper()
	const canary = 0x5a5a
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
		clear(x)
		c.stage(x, src[s*inC*h*w:(s+1)*inC*h*w], h, w)
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
				t.Fatalf("k%d s%d p%d inC%d outC%d %dx%d (ow %d) sample %d word %d: batch %d, dispatched %d, portable %d, panel GEMM %d",
					k, stride, pad, inC, outC, h, w, ow, s, i, got[s*n+i], direct[i], portable[i], want[i])
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

// TestConv16MatchesPanelGEMM is the unconditional identity gate for the
// direct convolution: the dispatched kernel (VPMADDWD over broadcast tap
// pairs, four pixels per weight load and two 8-channel groups per tap
// broadcast, where the host has AVX2 and outC is a multiple of 8), the
// portable kernel and the im2col-panel reduction agree word for word over
// kernel sizes 1-7, strides 1-3, pads 0-3, 1-9 input channels, 8/16/24/32
// and 5 output channels (one group, one pass of two, two and one, two
// passes of two, no asm), on full-range words whose sums wrap, at image
// sizes from a single output pixel up. Every (k, stride) then sweeps the
// output width over 1-9 and 16 — whole quads of pixels, every ow%4 tail,
// and both together — at a random pad.
func TestConv16MatchesPanelGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for k := 1; k <= 7; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 3; pad++ {
				for inC := 1; inC <= 9; inC++ {
					for _, outC := range []int{8, 16, 24, 32, 5} {
						// The smallest image the kernel fits (one output
						// pixel when the stride allows no second) and a
						// ragged larger one.
						hMin := max(1, k-2*pad)
						for _, hw := range [][2]int{{hMin, hMin}, {hMin + 1 + rng.Intn(4), hMin + rng.Intn(6)}} {
							checkConv16(t, rng, k, stride, pad, inC, outC, hw[0], hw[1])
						}
					}
				}
			}
			for _, ow := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
				for _, outC := range []int{8, 16, 24, 32, 5} {
					// The narrowest input with this ow; pad may not exceed
					// what keeps it at least one word wide.
					pad := rng.Intn(4)
					w := max((ow-1)*stride+k-2*pad, 1)
					if (w+2*pad-k)/stride+1 != ow {
						pad, w = 0, (ow-1)*stride+k
					}
					checkConv16(t, rng, k, stride, pad, 1+rng.Intn(3), outC, max(1, k-2*pad)+rng.Intn(3), w)
				}
			}
		}
	}
}

// TestConv16PackRepacksInPlace: an image built from one set of words and
// then Packed from another convolves, word for word, as the panel reduction
// over the new words — the odd kernels' zero pair weights untouched — and
// Pack allocates nothing.
func TestConv16PackRepacksInPlace(t *testing.T) {
	const inC, outC, h, w = 3, 8, 7, 9
	rng := rand.New(rand.NewSource(45))
	for k := 1; k <= 4; k++ {
		n := outC * inC * k * k
		c, wts := NewConv16(randInt16s(rng, n), inC, outC, k, 1, 1), randInt16s(rng, n)
		if allocs := testing.AllocsPerRun(3, func() { c.Pack(wts) }); allocs != 0 {
			t.Errorf("k%d: Pack allocates %v times", k, allocs)
		}
		src := randInt16s(rng, inC*h*w)
		oh, ow := c.OutHW(h, w)
		got := make([]int32, oh*ow*outC)
		Conv16Batch(c, got, make([]int16, c.ScratchLen(h, w)), src, 1, h, w)
		want := panelConv16(wts, src, inC, outC, k, 1, 1, h, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k%d word %d: repacked image gives %d, panel over the new words %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestConv16BatchDirtyScratch holds Conv16Batch to its "contents
// overwritten" contract now that it zeroes scratch once per call and stages
// only each sample's interior: over a scratch left full of 0x7fff or -32768
// words, three differing samples in one call give, sample for sample, the
// words of a batch-of-one call on a fresh scratch — for pads 0-2, odd and
// even kernels and one or two 8-channel groups, under both row kernels.
func TestConv16BatchDirtyScratch(t *testing.T) {
	const bsz, inC, h, w = 3, 2, 9, 11
	rng := rand.New(rand.NewSource(44))
	src := randInt16s(rng, bsz*inC*h*w)
	forEachInt16Kernel(t, func(kernel string) {
		for _, k := range []int{2, 3} {
			for pad := 0; pad <= 2; pad++ {
				for _, outC := range []int{8, 16} {
					c := NewConv16(randInt16s(rng, outC*inC*k*k), inC, outC, k, 1, pad)
					oh, ow := c.OutHW(h, w)
					n := oh * ow * outC
					want := make([]int32, bsz*n)
					for s := 0; s < bsz; s++ {
						Conv16Batch(c, want[s*n:(s+1)*n], make([]int16, c.ScratchLen(h, w)), src[s*inC*h*w:], 1, h, w)
					}
					for _, dirt := range []int16{math.MaxInt16, math.MinInt16} {
						scratch := make([]int16, c.ScratchLen(h, w))
						for i := range scratch {
							scratch[i] = dirt
						}
						got := make([]int32, bsz*n)
						Conv16Batch(c, got, scratch, src, bsz, h, w)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s k%d p%d outC%d dirt %d: sample %d word %d = %d, fresh scratch %d",
									kernel, k, pad, outC, dirt, i/n, i%n, got[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestConv16Wraparound pins the overflow semantics on the direct kernel as
// TestDot16Wraparound does on the dot product: a tap pair of (-32768, -32768)
// against the same weights is the one input VPMADDWD defines specially
// (0x80000000, exactly the wrapped sum), and further products keep adding mod
// 2^32 on top of it. A 2×2 kernel over a 2×7 input gives six output pixels:
// one whole quad and a tail of two, and the edge lands on pixel 1 inside the
// quad and on pixel 5 in the tail.
func TestConv16Wraparound(t *testing.T) {
	const m = math.MinInt16
	src := []int16{
		0, m, m, 0, 0, m, m,
		0, 3, m, 0, 0, 3, m,
	}
	for _, outC := range []int{8, 3} {
		wts := make([]int16, outC*4)
		for oc := 0; oc < outC; oc++ {
			copy(wts[oc*4:], []int16{m, m, 5, m})
		}
		c := NewConv16(wts, 1, outC, 2, 1, 0)
		acc := make([]int32, 6*outC)
		Conv16Batch(c, acc, make([]int16, c.ScratchLen(2, 7)), src, 1, 2, 7)
		want := panelConv16(wts, src, 1, outC, 2, 1, 0, 2, 7)
		// 2^31 + 15 + 2^30 mod 2^32.
		edge := int32(math.MinInt32 + 15 + 1<<30)
		for i, got := range acc {
			if px := i / outC; (px == 1 || px == 5) && got != edge || got != want[i] {
				t.Errorf("outC %d: pixel %d channel %d = %d, want %d (edge %d)", outC, px, i%outC, got, want[i], edge)
			}
		}
	}
}

// conv16Ref is the convolution one output word at a time: the true sum over
// the receptive field in int64, padding taps skipped, wrapped to int32 once.
func conv16Ref(wts, src []int16, inC, outC, k, stride, pad, h, w int) []int32 {
	oh, ow := (h+2*pad-k)/stride+1, (w+2*pad-k)/stride+1
	acc := make([]int32, oh*ow*outC)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for oc := 0; oc < outC; oc++ {
				var sum int64
				for ic := 0; ic < inC; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								sum += int64(src[(ic*h+iy)*w+ix]) * int64(wts[((oc*inC+ic)*k+ky)*k+kx])
							}
						}
					}
				}
				acc[(oy*ow+ox)*outC+oc] = int32(sum)
			}
		}
	}
	return acc
}

// FuzzConv16 holds Conv16Batch, under the asm and the portable row kernels,
// to conv16Ref on random geometries (kernel 1-7, stride 1-3, pad 0-3, 1-4
// input and 1-32 output channels, up to 3 samples, widths that give whole
// quads of output pixels and every tail) and on words taken from the input
// bytes, so both int16 extremes and the VPMADDWD edge pair are reachable.
func FuzzConv16(f *testing.F) {
	f.Add(uint64(0), []byte{0, 0x80, 0, 0x80, 3, 0})
	f.Add(uint64(0x123456789), []byte{9, 8, 1, 0, 200, 17})
	f.Add(uint64(0xfedcba987654321), []byte{255, 0x7f, 1, 0, 0, 128})
	f.Add(uint64(1838367), []byte{0, 0x80, 0xff, 0x7f, 7, 0, 0x80, 0xff}) // k3 p1, 32 channels, ow 10
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		next := func(m uint64) int { v := int(geom % m); geom /= m; return v }
		stride, pad, k := 1+next(3), next(4), 1+next(7)
		inC, outC, bsz := 1+next(4), 1+next(32), 1+next(3)
		h, w := max(k-2*pad, 1)+next(6), max(k-2*pad, 1)+next(20)
		word := func(i int) int16 {
			if len(data) < 2 {
				return 0
			}
			j := 2 * i % (len(data) - 1)
			return int16(binary.LittleEndian.Uint16(data[j:]))
		}
		wts := make([]int16, outC*inC*k*k)
		for i := range wts {
			wts[i] = word(i)
		}
		src := make([]int16, bsz*inC*h*w)
		for i := range src {
			src[i] = word(len(wts) + 3*i)
		}
		c := NewConv16(wts, inC, outC, k, stride, pad)
		oh, ow := c.OutHW(h, w)
		n := oh * ow * outC
		forEachInt16Kernel(t, func(kernel string) {
			got := make([]int32, bsz*n)
			Conv16Batch(c, got, make([]int16, c.ScratchLen(h, w)), src, bsz, h, w)
			for s := 0; s < bsz; s++ {
				want := conv16Ref(wts, src[s*inC*h*w:(s+1)*inC*h*w], inC, outC, k, stride, pad, h, w)
				for i, wv := range want {
					if got[s*n+i] != wv {
						t.Fatalf("%s k%d s%d p%d inC%d outC%d %dx%d (ow %d) sample %d word %d: %d, want %d",
							kernel, k, stride, pad, inC, outC, h, w, ow, s, i, got[s*n+i], wv)
					}
				}
			}
		})
	})
}
