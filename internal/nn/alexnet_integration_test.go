package nn

import (
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// TestModifiedAlexNetFullForwardBackward builds the paper's full 56.19
// M-weight network and runs one complete training step at the real input
// resolution (227x227x3) under the L4 topology — the heaviest integration
// test in the suite (~0.5 GB of parameters, ~7x10^8 MACs forward).
func TestModifiedAlexNetFullForwardBackward(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size AlexNet step skipped in -short mode")
	}
	spec := ModifiedAlexNetSpec()
	net := spec.Build()
	rng := rand.New(rand.NewSource(42))
	net.Init(rng)
	net.SetConfig(L4)

	if got := net.WeightCount(); got != 56190341 {
		t.Fatalf("built network has %d weights, want 56190341", got)
	}

	x := tensor.New(3, 227, 227)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	out := net.ForwardBatch(batchOfOne(x))
	if out.Len() != 5 {
		t.Fatalf("output length %d, want 5 Q-values", out.Len())
	}
	for i := 0; i < out.Len(); i++ {
		v := float64(out.At(0, i))
		if v != v { // NaN
			t.Fatalf("Q[%d] is NaN", i)
		}
	}

	// One Q-learning-style backward over the action with max Q.
	grad := tensor.New(1, 5)
	grad.Set(1.0, 0, out.ArgMax())
	net.BackwardBatch(grad)

	// Under L4 exactly the last 4 FC layers must have accumulated
	// gradients: 14,690,309 trainable scalars.
	if got := net.TrainableWeightCount(); got != 14690309 {
		t.Fatalf("L4 trainable weights = %d, want 14690309", got)
	}
	var nonZero bool
	for _, p := range net.TrainableParams() {
		if p.G.SumAbs() > 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Fatal("no gradient reached the trainable layers")
	}
	// Frozen conv stack must be untouched.
	for _, l := range net.Layers[:net.TrainFrom()] {
		for _, p := range l.Params() {
			if p.G.SumAbs() != 0 {
				t.Fatalf("frozen layer %s accumulated gradient", l.Name())
			}
		}
	}
	net.Step(0.001, 1)
}
