package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveConv is the scalar reference ConvInto must reproduce bit for bit:
// seven loops, one float32 accumulator per output element starting at +0,
// products (rounded before the add) in ascending (ch, ky, kx) order, a
// padding tap contributing w·(+0), and the bias added last.
func naiveConv(in, weight, bias *Tensor, kh, kw, stride, pad int) *Tensor {
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outC := weight.Dim(0)
	oh, ow := ConvOutDim(h, kh, stride, pad), ConvOutDim(w, kw, stride, pad)
	out := New(b, outC, oh, ow)
	id, wd, od := in.Data(), weight.Data(), out.Data()
	for s := 0; s < b; s++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								var x float32
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									x = id[((s*c+ch)*h+iy)*w+ix]
								}
								acc += float32(wd[((oc*c+ch)*kh+ky)*kw+kx] * x)
							}
						}
					}
					od[((s*outC+oc)*oh+oy)*ow+ox] = acc + bias.Data()[oc]
				}
			}
		}
	}
	return out
}

// forEachFloatKernel runs f under the AVX float kernels (where this build
// has them) and under their portable twins.
func forEachFloatKernel(t *testing.T, f func(kernel string)) {
	t.Helper()
	asm := useFloatAVX
	defer func() { useFloatAVX = asm }()
	if asm {
		f("asm")
	}
	useFloatAVX = false
	f("portable")
}

// checkConv runs ConvInto through ws (twice, so a reused workspace is
// covered) and holds it to naiveConv.
func checkConv(t *testing.T, label string, in, weight, bias *Tensor, kh, kw, stride, pad int, ws *ConvScratch) {
	t.Helper()
	want := naiveConv(in, weight, bias, kh, kw, stride, pad)
	got := New(want.Shape()...)
	for pass := 0; pass < 2; pass++ {
		got.Fill(float32(math.NaN())) // every element must be overwritten
		ConvInto(got, in, weight, bias, kh, kw, stride, pad, ws)
		requireSameBits(t, label, want, got)
	}
}

// TestConvForwardMatchesNaive sweeps the implicit forward across strides,
// paddings, kernels and channel counts — K 11 over 8 channels crosses the
// gemmBlockK panel split, OutC 5 leaves a row below the 4-row kernel — on
// both panel kernels, at batch 1, 3 and 32 and odd spatial sizes.
func TestConvForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	outCs, batches, extras := []int{8, 16, 5}, []int{1, 3, 32}, []int{0, 3, 6}
	i := 0
	forEachFloatKernel(t, func(kernel string) {
		var ws ConvScratch // one workspace across every geometry below
		for _, stride := range []int{1, 2, 4} {
			for _, pad := range []int{0, 1, 2} {
				for _, k := range []int{1, 3, 5, 11} {
					for _, c := range []int{1, 3, 8} {
						i++
						outC, b := outCs[i%3], batches[(i/3)%3]
						if k == 11 && b == 32 {
							b = 2 // keep the naive loops quick
						}
						h := max(k-2*pad, 1) + extras[i%3] | 1
						w := max(k-2*pad, 1) + extras[(i+1)%3] | 1
						in := randTensor(rng, b, c, h, w)
						weight := randTensor(rng, outC, c*k*k)
						bias := randTensor(rng, outC)
						label := fmt.Sprintf("%s b%d c%d %dx%d outC%d k%d stride%d pad%d",
							kernel, b, c, h, w, outC, k, stride, pad)
						checkConv(t, label, in, weight, bias, k, k, stride, pad, &ws)
					}
				}
			}
		}
	})
}

// FuzzConvForward draws shapes and values — a palette heavy in +0 and -0,
// so zero weights, zero inputs and negative zeros all occur — and holds the
// implicit forward to naiveConv on both panel kernels.
func FuzzConvForward(f *testing.F) {
	f.Add(uint64(0), []byte{0, 1, 2, 3})
	f.Add(uint64(0x123456789), []byte{9, 8, 1, 0, 200, 17})
	f.Add(uint64(0xfedcba987654321), []byte{255, 1, 1, 0, 0, 128})
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func(m uint64) int { v := int(geom % m); geom /= m; return v }
		stride, pad, k := 1+next(4), next(3), 1+next(6)
		c, outC, b := 1+next(4), 1+next(9), 1+next(4)
		h, w := max(k-2*pad, 1)+next(7), max(k-2*pad, 1)+next(7)
		pos := 0
		fill := func(t *Tensor) *Tensor {
			d := t.Data()
			for i := range d {
				v := data[pos%len(data)] + byte(pos/len(data))
				pos++
				switch v % 8 {
				case 0:
					d[i] = 0
				case 1:
					d[i] = float32(math.Copysign(0, -1))
				default:
					d[i] = float32(int8(v)) / 8
				}
			}
			return t
		}
		in := fill(New(b, c, h, w))
		weight := fill(New(outC, c*k*k))
		bias := fill(New(outC))
		forEachFloatKernel(t, func(kernel string) {
			var ws ConvScratch
			checkConv(t, kernel, in, weight, bias, k, k, stride, pad, &ws)
		})
	})
}
