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
// both panel kernels, at batch 1, 3 and 32 and odd spatial sizes. Output
// widths that are whole 8-wide blocks (NavNet's 16 and 8, and 24 on a grid
// wider than the output) take the vector bias epilogue; the rest its loop.
func TestConvForwardMatchesNaive(t *testing.T) {
	forEachFloatKernel(t, func(kernel string) {
		rng := rand.New(rand.NewSource(80))
		var ws ConvScratch
		for _, g := range []struct{ c, outC, h, w, k, stride, pad int }{
			{1, 8, 32, 32, 5, 2, 2}, {8, 16, 16, 16, 3, 2, 1}, {3, 5, 7, 24, 3, 1, 1},
			{2, 4, 9, 26, 3, 1, 0}, {1, 3, 5, 17, 3, 2, 1},
		} {
			in := randTensor(rng, 2, g.c, g.h, g.w)
			weight, bias := randTensor(rng, g.outC, g.c*g.k*g.k), randTensor(rng, g.outC)
			label := fmt.Sprintf("%s c%d %dx%d outC%d k%d stride%d pad%d", kernel, g.c, g.h, g.w, g.outC, g.k, g.stride, g.pad)
			checkConv(t, label, in, weight, bias, g.k, g.k, g.stride, g.pad, &ws)
		}
	})
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

// paletteFill returns a filler that writes the fuzz input's bytes, cycled,
// into a tensor as +0, -0 or a small multiple of 1/8.
func paletteFill(data []byte) func(*Tensor) *Tensor {
	pos := 0
	return func(t *Tensor) *Tensor {
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
		fill := paletteFill(data)
		in := fill(New(b, c, h, w))
		weight := fill(New(outC, c*k*k))
		bias := fill(New(outC))
		forEachFloatKernel(t, func(kernel string) {
			var ws ConvScratch
			checkConv(t, kernel, in, weight, bias, k, k, stride, pad, &ws)
		})
	})
}

// naiveConvBackward is the scalar reference ConvBackward must reproduce bit
// for bit, seven loops per gradient, each product rounded before its add:
//   - dw: one accumulator per weight starting at its current value, products
//     in ascending (sample, oy, ox) order, a padding tap contributing g·(+0);
//   - db: per sample one accumulator from +0 over ascending (oy, ox), each
//     sample's sum then added to db in sample order;
//   - din: one accumulator per input element from +0, taking in ascending
//     patch order the patch gradient of each tap that reads it, itself a dot
//     product over ascending output channels from +0 (a col2im scatter).
func naiveConvBackward(in, weight, grad, dw, db *Tensor, kh, kw, stride, pad int) (din *Tensor) {
	b, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outC, oh, ow := grad.Dim(1), grad.Dim(2), grad.Dim(3)
	id, wd, gd := in.Data(), weight.Data(), grad.Data()
	at := func(s, oc, oy, ox int) float32 { return gd[((s*outC+oc)*oh+oy)*ow+ox] }
	for oc := 0; oc < outC; oc++ {
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					q := oc*c*kh*kw + (ch*kh+ky)*kw + kx
					acc := dw.Data()[q]
					for s := 0; s < b; s++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								var x float32
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									x = id[((s*c+ch)*h+iy)*w+ix]
								}
								acc += float32(at(s, oc, oy, ox) * x)
							}
						}
					}
					dw.Data()[q] = acc
				}
			}
		}
	}
	for oc := 0; oc < outC; oc++ {
		for s := 0; s < b; s++ {
			var acc float32
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					acc += at(s, oc, oy, ox)
				}
			}
			db.Data()[oc] += acc
		}
	}
	din = New(b, c, h, w)
	for s := 0; s < b; s++ {
		for ch := 0; ch < c; ch++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					var acc float32
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							ky, kx := iy+pad-oy*stride, ix+pad-ox*stride
							if ky < 0 || ky >= kh || kx < 0 || kx >= kw {
								continue
							}
							var dcol float32
							for oc := 0; oc < outC; oc++ {
								dcol += float32(wd[oc*c*kh*kw+(ch*kh+ky)*kw+kx] * at(s, oc, oy, ox))
							}
							acc += dcol
						}
					}
					din.Data()[((s*c+ch)*h+iy)*w+ix] = acc
				}
			}
		}
	}
	return din
}

// checkConvBackward runs ConvInto then ConvBackward through ws, twice with
// the input gradient and once without, and holds every gradient to
// naiveConvBackward. dw0 and db0 are the gradients' starting values.
func checkConvBackward(t *testing.T, label string, in, weight, bias, grad, dw0, db0 *Tensor, kh, kw, stride, pad int, ws *ConvScratch) {
	t.Helper()
	wantDW, wantDB := dw0.Clone(), db0.Clone()
	wantDIn := naiveConvBackward(in, weight, grad, wantDW, wantDB, kh, kw, stride, pad)
	out := New(grad.Shape()...)
	for pass := 0; pass < 3; pass++ {
		ConvInto(out, in, weight, bias, kh, kw, stride, pad, ws)
		dw, db := dw0.Clone(), db0.Clone()
		din := ConvBackward(dw, db, grad, weight, ws, pass < 2)
		requireSameBits(t, label+" dw", wantDW, dw)
		requireSameBits(t, label+" db", wantDB, db)
		if pass == 2 {
			if din != nil {
				t.Fatalf("%s: ConvBackward without the input gradient returned one", label)
			}
			continue
		}
		requireSameBits(t, label+" din", wantDIn, din)
	}
}

// TestConvBackwardMatchesNaive sweeps the backward over the forward test's
// grid — strides, paddings, kernels, channel counts, OutC 5 below the 4-row
// kernel, batch 1, 3 and 32 — then NavNet's two layers at the E2E learner's
// batch 32, whose first has a grid longer than gemmBlockK, on both panel
// kernels through one reused workspace, with the gradients starting non-zero
// and GOMAXPROCS raised so the cases of at least parallelFlops (those two)
// fan out.
func TestConvBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	outCs, batches, extras := []int{8, 16, 5}, []int{1, 3, 32}, []int{0, 3, 6}
	i, fanned := 0, 0
	withGOMAXPROCS(t, 4, func() {
		forEachFloatKernel(t, func(kernel string) {
			var ws ConvScratch
			check := func(b, c, h, w, outC, k, stride, pad int) {
				in := randTensor(rng, b, c, h, w)
				weight := randTensor(rng, outC, c*k*k)
				grad := randTensor(rng, b, outC, ConvOutDim(h, k, stride, pad), ConvOutDim(w, k, stride, pad))
				dw0, db0 := New(outC, c*k*k), New(outC)
				dw0.RandN(rng, 1)
				db0.RandN(rng, 1)
				label := fmt.Sprintf("%s b%d c%d %dx%d outC%d k%d stride%d pad%d",
					kernel, b, c, h, w, outC, k, stride, pad)
				checkConvBackward(t, label, in, weight, New(outC), grad, dw0, db0, k, k, stride, pad, &ws)
				if b*outC*c*k*k*ws.n >= parallelFlops {
					fanned++
				}
			}
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
							check(b, c, h, w, outC, k, stride, pad)
						}
					}
				}
			}
			check(32, 1, 32, 32, 8, 5, 2, 2)
			check(32, 8, 16, 16, 16, 3, 2, 1)
		})
	})
	if fanned == 0 {
		t.Fatal("no case clears parallelFlops: the fan-out went unchecked")
	}
}

// FuzzConvBackward draws shapes and values from FuzzConvForward's palette,
// heavy in +0 and -0, and holds the backward to naiveConvBackward on both
// panel kernels; the gradients start from the palette with zeros made 1/2.
func FuzzConvBackward(f *testing.F) {
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
		fill := paletteFill(data)
		in := fill(New(b, c, h, w))
		weight := fill(New(outC, c*k*k))
		grad := fill(New(b, outC, ConvOutDim(h, k, stride, pad), ConvOutDim(w, k, stride, pad)))
		dw0, db0 := fill(New(outC, c*k*k)), fill(New(outC))
		for _, g := range []*Tensor{dw0, db0} {
			for i, v := range g.Data() {
				if v == 0 {
					g.Data()[i] = 0.5
				}
			}
		}
		forEachFloatKernel(t, func(kernel string) {
			var ws ConvScratch
			checkConvBackward(t, kernel, in, weight, New(outC), grad, dw0, db0, k, k, stride, pad, &ws)
		})
	})
}
