package systolic

import (
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TestConvBackwardGEMMMatchesAutograd checks the array's GEMM-based conv
// backpropagation against the reference gradients computed by the nn
// package's Conv2D layer.
func TestConvBackwardGEMMMatchesAutograd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []ConvShape{
		{Name: "s1", InC: 2, OutC: 3, K: 3, Stride: 1, Pad: 1, InH: 7, InW: 7},
		{Name: "s2", InC: 1, OutC: 2, K: 5, Stride: 2, Pad: 2, InH: 11, InW: 11},
		{Name: "s3", InC: 4, OutC: 2, K: 3, Stride: 1, Pad: 0, InH: 6, InW: 6},
	}
	for _, s := range shapes {
		in := tensor.New(s.InC, s.InH, s.InW)
		in.RandN(rng, 1)
		w := tensor.New(s.OutC, s.InC, s.K, s.K)
		w.RandN(rng, 0.5)

		// Reference: the autograd layer, at batch one.
		layer := nn.NewConv2D(s.Name, s.InC, s.OutC, s.K, s.K, s.Stride, s.Pad)
		copy(layer.Weight.W.Data(), w.Data())
		layer.Weight.MarkChanged()
		out := layer.ForwardBatch(in.Reshape(1, s.InC, s.InH, s.InW))
		grad := tensor.New(out.Shape()[1:]...)
		grad.RandN(rng, 1)
		wantDX := layer.BackwardBatch(grad.Reshape(out.Shape()...), true)
		wantDW := layer.Weight.G

		// Array GEMM path.
		arr := New(DefaultArray())
		gotDW, gotDX := arr.ConvBackwardGEMM(in, w, grad, s)

		if gotDW.Len() != wantDW.Len() {
			t.Fatalf("%s: dW sizes %d vs %d", s.Name, gotDW.Len(), wantDW.Len())
		}
		for i := range gotDW.Data() {
			g, r := float64(gotDW.Data()[i]), float64(wantDW.Data()[i])
			if math.Abs(g-r) > 1e-3*(1+math.Abs(r)) {
				t.Fatalf("%s: dW[%d] = %v, want %v", s.Name, i, g, r)
			}
		}
		for i := range gotDX.Data() {
			g, r := float64(gotDX.Data()[i]), float64(wantDX.Data()[i])
			if math.Abs(g-r) > 1e-3*(1+math.Abs(r)) {
				t.Fatalf("%s: dX[%d] = %v, want %v", s.Name, i, g, r)
			}
		}
	}
}

func TestConvBackwardGEMMStagesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s := ConvShape{Name: "tr", InC: 2, OutC: 2, K: 3, Stride: 1, Pad: 1, InH: 5, InW: 5}
	in := tensor.New(s.InC, s.InH, s.InW)
	in.RandN(rng, 1)
	w := tensor.New(s.OutC, s.InC, s.K, s.K)
	w.RandN(rng, 1)
	grad := tensor.New(s.OutC, s.OutH(), s.OutW())
	grad.RandN(rng, 1)
	arr := New(DefaultArray())
	arr.ConvBackwardGEMM(in, w, grad, s)
	colsWords := int64(s.OutH()*s.OutW()) * int64(s.InC*s.K*s.K)
	if arr.Counters.GBWriteWords < 2*colsWords {
		t.Errorf("staging traffic %d words, want >= 2x im2col (%d)", arr.Counters.GBWriteWords, 2*colsWords)
	}
	if arr.Counters.MACs == 0 {
		t.Error("no MACs counted")
	}
}
