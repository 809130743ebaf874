package nn

import (
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// The seed implementation's nested-loop convolution, kept verbatim as the
// reference the GEMM path must reproduce bit for bit: the kernels promise the
// same single-accumulator, ascending-index reductions, so these comparisons
// use exact equality rather than tolerances.

// im2col is one CHW sample's patch-major im2col matrix.
func im2col(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	oh := tensor.ConvOutDim(in.Dim(1), c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(in.Dim(2), c.KW, c.Stride, c.Pad)
	cols := tensor.New(oh*ow, c.InC*c.KH*c.KW)
	tensor.Im2ColInto(cols, in.Reshape(1, in.Dim(0), in.Dim(1), in.Dim(2)), c.KH, c.KW, c.Stride, c.Pad)
	return cols
}

func naiveConvForward(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	cols := im2col(c, in)
	out := tensor.New(c.OutC, oh, ow)
	od := out.Data()
	wd := c.Weight.W
	bd := c.Bias.W.Data()
	np := oh * ow
	for p := 0; p < np; p++ {
		patch := cols.Data()[p*cols.Dim(1) : (p+1)*cols.Dim(1)]
		for oc := 0; oc < c.OutC; oc++ {
			row := wd.Data()[oc*wd.Dim(1) : (oc+1)*wd.Dim(1)]
			var s float32
			for k, v := range patch {
				s += row[k] * v
			}
			od[oc*np+p] = s + bd[oc]
		}
	}
	return out
}

// naiveConvBackward accumulates one sample's dW and dB into dw and db and
// returns its dIn for the given upstream gradient, reproducing the seed's loop
// order exactly.
func naiveConvBackward(c *Conv2D, in, grad, dw, db *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	np := oh * ow
	cols := im2col(c, in)
	colw := cols.Dim(1)
	gd := grad.Data()
	for oc := 0; oc < c.OutC; oc++ {
		grow := gd[oc*np : (oc+1)*np]
		wrow := dw.Data()[oc*colw : (oc+1)*colw]
		var bsum float32
		for p, g := range grow {
			if g == 0 {
				continue
			}
			bsum += g
			patch := cols.Data()[p*colw : (p+1)*colw]
			for k, v := range patch {
				wrow[k] += g * v
			}
		}
		db.Data()[oc] += bsum
	}
	dcols := tensor.New(np, colw)
	wd := c.Weight.W
	for oc := 0; oc < c.OutC; oc++ {
		grow := gd[oc*np : (oc+1)*np]
		wrow := wd.Data()[oc*colw : (oc+1)*colw]
		for p, g := range grow {
			if g == 0 {
				continue
			}
			drow := dcols.Data()[p*colw : (p+1)*colw]
			for k, wv := range wrow {
				drow[k] += g * wv
			}
		}
	}
	dcolsT := tensor.New(colw, np)
	tensor.TransposeInto(dcolsT, dcols)
	din := tensor.New(1, c.InC, h, w)
	tensor.Col2ImInto(din, dcolsT, c.KH, c.KW, c.Stride, c.Pad)
	return din.Reshape(c.InC, h, w)
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
