package nn

import (
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// Numeric gradient checking: for a scalar loss L(theta) = <out, seed>, the
// analytic gradient accumulated by BackwardBatch must match the central finite
// difference (L(theta+h) - L(theta-h)) / 2h for every parameter and for the
// input. This validates the entire backpropagation machinery the paper's
// online-RL update relies on.

// forwardThrough runs the sample x through the layers as a batch of one.
func forwardThrough(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	y := batchOfOne(x)
	for _, l := range layers {
		y = l.ForwardBatch(y)
	}
	return y
}

// lossThrough runs x through the layers and returns <out, seed>.
func lossThrough(layers []Layer, x, seed *tensor.Tensor) float64 {
	return forwardThrough(layers, x).Dot(seed)
}

// checkLayerGradients builds the loss around the given layer stack and
// verifies analytic vs numeric gradients for all parameters.
func checkLayerGradients(t *testing.T, layers []Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	// Forward once to discover the output shape, then fix a random seed
	// direction for the scalar loss.
	seed := tensor.New(forwardThrough(layers, x).Shape()...)
	seed.RandN(rng, 1)

	// Analytic pass.
	for _, l := range layers {
		for _, p := range l.Params() {
			p.G.Zero()
		}
	}
	forwardThrough(layers, x)
	grad := seed.Clone()
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].BackwardBatch(grad, true)
	}
	// The input gradient is arena-owned and the probes below run more passes.
	dx := grad.Clone()

	const h = 1e-3
	// Parameter gradients.
	for _, l := range layers {
		for _, p := range l.Params() {
			w := p.W.Data()
			g := p.G.Data()
			// Probe a bounded number of coordinates to keep runtime sane.
			stride := len(w)/17 + 1
			for i := 0; i < len(w); i += stride {
				orig := w[i]
				w[i] = orig + h
				p.MarkChanged()
				lp := lossThrough(layers, x, seed)
				w[i] = orig - h
				p.MarkChanged()
				lm := lossThrough(layers, x, seed)
				w[i] = orig
				p.MarkChanged()
				numeric := (lp - lm) / (2 * h)
				analytic := float64(g[i])
				if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
					t.Errorf("%s param %s[%d]: analytic %.6f vs numeric %.6f",
						l.Name(), p.Name, i, analytic, numeric)
				}
			}
		}
	}
	// Input gradient.
	xd := x.Data()
	dd := dx.Data()
	stride := len(xd)/13 + 1
	for i := 0; i < len(xd); i += stride {
		orig := xd[i]
		xd[i] = orig + h
		lp := lossThrough(layers, x, seed)
		xd[i] = orig - h
		lm := lossThrough(layers, x, seed)
		xd[i] = orig
		numeric := (lp - lm) / (2 * h)
		analytic := float64(dd[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("input grad [%d]: analytic %.6f vs numeric %.6f", i, analytic, numeric)
		}
	}
}

func TestDenseGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 7, 4)
	d.Init(rng)
	x := tensor.New(7)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{d}, x, 2e-2)
}

func TestConvGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("conv", 2, 3, 3, 3, 1, 1)
	c.Init(rng)
	x := tensor.New(2, 5, 5)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{c}, x, 2e-2)
}

func TestConvStrideGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("conv", 1, 2, 3, 3, 2, 0)
	c.Init(rng)
	x := tensor.New(1, 7, 7)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{c}, x, 2e-2)
}

func TestReLUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(9)
	x.RandN(rng, 1)
	// Keep values away from the kink to make finite differences valid.
	for i, v := range x.Data() {
		if math.Abs(float64(v)) < 0.05 {
			x.Data()[i] = 0.5
		}
	}
	checkLayerGradients(t, []Layer{NewReLU("relu")}, x, 2e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(2, 6, 6)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{NewMaxPool("pool", 2, 2)}, x, 2e-2)
}

func TestLRNGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(6, 3, 3)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{NewLRN("norm")}, x, 2e-2)
}

func TestFlattenGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(2, 3, 4)
	x.RandN(rng, 1)
	checkLayerGradients(t, []Layer{NewFlatten("flat")}, x, 1e-2)
}

func TestStackedGradient(t *testing.T) {
	// A miniature conv->relu->pool->flatten->fc->relu->fc pipeline, the
	// same stage sequence as the paper's network.
	rng := rand.New(rand.NewSource(8))
	conv := NewConv2D("conv", 1, 3, 3, 3, 1, 1)
	conv.Init(rng)
	fc1 := NewDense("fc1", 3*3*3, 6)
	fc1.Init(rng)
	fc2 := NewDense("fc2", 6, 4)
	fc2.Init(rng)
	layers := []Layer{
		conv, NewReLU("r1"), NewMaxPool("p", 2, 2), NewFlatten("f"),
		fc1, NewReLU("r2"), fc2,
	}
	x := tensor.New(1, 6, 6)
	x.RandN(rng, 1)
	checkLayerGradients(t, layers, x, 3e-2)
}

func TestNavNetGradientSmoke(t *testing.T) {
	// Full NavNet forward+backward with E2E config: the loss decreases
	// after an SGD step in the gradient direction.
	rng := rand.New(rand.NewSource(9))
	net := BuildNavNet()
	net.Init(rng)
	net.SetConfig(E2E)
	x := tensor.New(1, NavNetInput, NavNetInput)
	x.RandN(rng, 0.5)

	target := float32(1.0)
	loss := func() float64 {
		out := net.Forward(x)
		d := float64(out.At(0) - target)
		return 0.5 * d * d
	}
	before := loss()
	out := net.ForwardBatch(batchOfOne(x))
	grad := tensor.New(1, NavNetActions)
	grad.Set(out.At(0, 0)-target, 0, 0)
	net.BackwardBatch(grad)
	net.Step(1e-4, 1)
	after := loss()
	if after >= before {
		t.Errorf("SGD step did not reduce loss: %.6f -> %.6f", before, after)
	}
}
