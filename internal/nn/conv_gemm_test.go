package nn

import (
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// Scalar seven-loop references the conv layer must reproduce bit for bit:
// the kernels promise the same single-accumulator, ascending-index
// reductions, so these comparisons use exact equality rather than
// tolerances. Nothing here runs the code under test.

// inputAt is CHW sample in at (ch, iy, ix), zero in the padding.
func inputAt(in *tensor.Tensor, ch, iy, ix int) float32 {
	h, w := in.Dim(1), in.Dim(2)
	if iy < 0 || iy >= h || ix < 0 || ix >= w {
		return 0
	}
	return in.Data()[(ch*h+iy)*w+ix]
}

func naiveConvForward(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	oh := tensor.ConvOutDim(in.Dim(1), c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(in.Dim(2), c.KW, c.Stride, c.Pad)
	out := tensor.New(c.OutC, oh, ow)
	wd, bd := c.Weight.W.Data(), c.Bias.W.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ch := 0; ch < c.InC; ch++ {
					for ky := 0; ky < c.KH; ky++ {
						for kx := 0; kx < c.KW; kx++ {
							x := inputAt(in, ch, oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx)
							s += float32(wd[((oc*c.InC+ch)*c.KH+ky)*c.KW+kx] * x)
						}
					}
				}
				out.Data()[(oc*oh+oy)*ow+ox] = s + bd[oc]
			}
		}
	}
	return out
}

// naiveConvBackward accumulates one sample's dW and dB into dw and db and
// returns its dIn for the given upstream gradient: dW one product per output
// position in ascending order onto the running value, dB the sample's sum
// added once, and each dIn element the ascending-patch sum of its taps'
// patch gradients, each an ascending-OutC dot product.
func naiveConvBackward(c *Conv2D, in, grad, dw, db *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := grad.Dim(1), grad.Dim(2)
	gd, wd := grad.Data(), c.Weight.W.Data()
	colw := c.InC * c.KH * c.KW
	for oc := 0; oc < c.OutC; oc++ {
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					q := oc*colw + (ch*c.KH+ky)*c.KW + kx
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							x := inputAt(in, ch, oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx)
							dw.Data()[q] += float32(gd[(oc*oh+oy)*ow+ox] * x)
						}
					}
				}
			}
		}
		var bsum float32
		for _, g := range gd[oc*oh*ow : (oc+1)*oh*ow] {
			bsum += g
		}
		db.Data()[oc] += bsum
	}
	din := tensor.New(c.InC, h, w)
	for ch := 0; ch < c.InC; ch++ {
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				var acc float32
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						ky, kx := iy+c.Pad-oy*c.Stride, ix+c.Pad-ox*c.Stride
						if ky < 0 || ky >= c.KH || kx < 0 || kx >= c.KW {
							continue
						}
						var dcol float32
						for oc := 0; oc < c.OutC; oc++ {
							dcol += float32(wd[oc*colw+(ch*c.KH+ky)*c.KW+kx] * gd[(oc*oh+oy)*ow+ox])
						}
						acc += dcol
					}
				}
				din.Data()[(ch*h+iy)*w+ix] = acc
			}
		}
	}
	return din
}

// convCases covers register-block remainders (OutC and np not multiples of
// the tile sizes), strides, padding and a 1x1 kernel.
var convCases = []struct {
	inC, outC, kh, kw, stride, pad, h, w int
}{
	{1, 1, 1, 1, 1, 0, 4, 4},
	{2, 3, 3, 3, 1, 1, 7, 7},
	{3, 5, 3, 3, 2, 0, 9, 11},
	{4, 8, 5, 5, 2, 2, 12, 12},
	{8, 6, 3, 3, 1, 1, 5, 6},
}

// sampleOf returns sample s of a batch-major tensor as a view.
func sampleOf(batch *tensor.Tensor, s int) *tensor.Tensor {
	n := batch.Len() / batch.Dim(0)
	return tensor.FromSlice(batch.Data()[s*n:(s+1)*n], batch.Shape()[1:]...)
}

func TestConvForwardGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, cs := range convCases {
		for _, b := range []int{1, 3} {
			c := NewConv2D("conv", cs.inC, cs.outC, cs.kh, cs.kw, cs.stride, cs.pad)
			c.Init(rng)
			in := tensor.New(b, cs.inC, cs.h, cs.w)
			in.RandN(rng, 1)
			got := c.ForwardBatch(in)
			for s := 0; s < b; s++ {
				if want := naiveConvForward(c, sampleOf(in, s)); !sampleOf(got, s).Equal(want) {
					t.Errorf("case %+v b=%d sample %d: GEMM forward diverges from the naive loop", cs, b, s)
				}
			}
		}
	}
}

func TestConvBackwardGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, cs := range convCases {
		for _, b := range []int{1, 3} {
			c := NewConv2D("conv", cs.inC, cs.outC, cs.kh, cs.kw, cs.stride, cs.pad)
			c.Init(rng)
			in := tensor.New(b, cs.inC, cs.h, cs.w)
			in.RandN(rng, 1)
			grad := tensor.New(c.ForwardBatch(in).Shape()...)
			grad.RandN(rng, 1)
			// Zero a few entries so the sparse-gradient skip paths run; RL
			// gradients at the Q head are mostly zero.
			for i := 0; i < grad.Len(); i += 3 {
				grad.Data()[i] = 0
			}
			din := c.BackwardBatch(grad, true)
			// The naive loop takes the samples one after another onto the same
			// accumulators: the order the batched reduction promises.
			wantDW, wantDB := tensor.New(c.Weight.G.Shape()...), tensor.New(cs.outC)
			for s := 0; s < b; s++ {
				wantDIn := naiveConvBackward(c, sampleOf(in, s), sampleOf(grad, s), wantDW, wantDB)
				if !sampleOf(din, s).Equal(wantDIn) {
					t.Errorf("case %+v b=%d sample %d: GEMM dIn diverges from the naive loop", cs, b, s)
				}
			}
			if !c.Weight.G.Equal(wantDW) {
				t.Errorf("case %+v b=%d: GEMM dW diverges from the naive loop", cs, b)
			}
			if !c.Bias.G.Equal(wantDB) {
				t.Errorf("case %+v b=%d: GEMM dB diverges from the naive loop", cs, b)
			}
		}
	}
}

// TestConvBackwardGradcheckViaNaive cross-checks the GEMM backward against
// the naive path on the same numeric-gradient harness the other layers use:
// both must agree with central finite differences of the forward pass.
func TestConvBackwardGradcheckViaNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewConv2D("conv", 3, 6, 3, 3, 1, 1)
	c.Init(rng)
	x := tensor.New(3, 6, 6)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{c}, x, 2e-2)
}
