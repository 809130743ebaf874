package nn

import (
	"math/rand"
	"strings"
	"testing"

	"dronerl/internal/tensor"
)

// tinyAlexSpec is a small architecture exercising every layer kind:
// conv with LRN and pooling, conv without, flatten, dense chains with ReLU.
func tinyAlexSpec() ArchSpec {
	return ArchSpec{
		Name:   "TinyAlex",
		InputC: 2, InputH: 13, InputW: 13,
		Convs: []ConvSpec{
			{Name: "CONV1", InC: 2, OutC: 6, K: 3, Stride: 1, Pad: 1, LRN: true, Pool: true},
			{Name: "CONV2", InC: 6, OutC: 4, K: 3, Stride: 2, Pad: 1},
		},
		FCs: []FCSpec{
			{Name: "FC1", In: 36, Out: 16},
			{Name: "FC2", In: 16, Out: 8},
			{Name: "FC3", In: 8, Out: 3},
		},
		PoolK: 3, PoolStride: 2,
	}
}

func batchSpecs(t *testing.T) []ArchSpec {
	specs := []ArchSpec{NavNetSpec(), tinyAlexSpec()}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// randomBatch builds a (B, C, H, W) input batch for the spec.
func randomBatch(spec ArchSpec, b int, rng *rand.Rand) *tensor.Tensor {
	x := tensor.New(b, spec.InputC, spec.InputH, spec.InputW)
	x.RandN(rng, 1)
	return x
}

// TestBackwardBatchRejectsStaleCache pins the one-cache-per-layer contract: a
// Forward between a ForwardBatch and its BackwardBatch overwrites what the
// backward pass would read, so the backward pass must refuse, naming a layer,
// before it touches any gradient. So must a backward pass with no forward
// pass before it, on every layer kind.
func TestBackwardBatchRejectsStaleCache(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "BackwardBatch") {
				t.Errorf("%s: want a panic naming the layer's BackwardBatch, got %q", what, msg)
			}
		}()
		f()
	}
	spec := tinyAlexSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(54)))
	rng := rand.New(rand.NewSource(55))
	x := randomBatch(spec, 8, rng)
	grad := tensor.New(8, 3)
	grad.RandN(rng, 1)

	net.ForwardBatch(x)
	net.Forward(sampleOf(x, 1))
	mustPanic("B=8 gradient after a batch-of-one Forward", func() { net.BackwardBatch(grad) })
	for _, p := range net.Params() {
		if p.G.SumAbs() != 0 {
			t.Errorf("rejected backward pass wrote gradient %s", p.Name)
		}
	}
	// The pair run back to back still works on the same network.
	net.ForwardBatch(x)
	net.BackwardBatch(grad)

	for _, l := range spec.Build().Layers {
		mustPanic(l.Name()+" with no forward pass", func() { l.BackwardBatch(grad, true) })
	}
	// Every layer kind checks the shape, not only the last one.
	for i, l := range net.Layers {
		in := randomBatch(spec, 2, rng)
		out := net.ForwardBatchRange(0, i+1, in)
		wrong := tensor.New(append([]int{3}, out.Shape()[1:]...)...)
		mustPanic(l.Name()+" with a B=3 gradient after a B=2 forward", func() { l.BackwardBatch(wrong, true) })
	}
}

// TestForwardResultIsPrivate pins the ownership contract of the per-sample
// convenience: what Forward and ForwardRange return is the caller's (replay
// keeps boundary activations as Transition.Feat), they do not write their
// input, and no later forward pass reads a past input.
func TestForwardResultIsPrivate(t *testing.T) {
	spec := NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(84)))
	net.SetConfig(L3)
	boundary := net.TrainFrom()
	rng := rand.New(rand.NewSource(85))
	x := sampleOf(randomBatch(spec, 1, rng), 0)
	before := x.Clone()

	q := net.Forward(x)
	feat := net.ForwardRange(0, boundary, x)
	if !x.Equal(before) {
		t.Fatal("Forward wrote its input")
	}
	if q.Rank() != 1 || q.Len() != NavNetActions || feat.Rank() != 1 {
		t.Fatalf("Forward returned %v and ForwardRange %v, want flat per-sample tensors", q.Shape(), feat.Shape())
	}
	qWant, featWant := q.Clone(), feat.Clone()

	// A further Forward, a batch-32 pass and a training step on the same net.
	net.Forward(sampleOf(randomBatch(spec, 1, rng), 0))
	batch := randomBatch(spec, 32, rng)
	grad := tensor.New(32, NavNetActions)
	grad.RandN(rng, 1)
	net.ForwardBatch(batch)
	net.BackwardBatch(grad)
	net.Step(0.01, 32)
	if !q.Equal(qWant) || !feat.Equal(featWant) {
		t.Fatal("a later pass on the same network changed a tensor Forward/ForwardRange returned")
	}

	// The input is the caller's to reuse: a pass over another frame after x
	// was overwritten reads nothing of x.
	y := sampleOf(randomBatch(spec, 1, rng), 0)
	fresh := spec.Build()
	if err := fresh.CopyWeightsFrom(net); err != nil {
		t.Fatal(err)
	}
	net.Forward(x)
	x.Fill(7)
	if !net.Forward(y).Equal(fresh.Forward(y)) {
		t.Fatal("a forward pass depends on an input of an earlier pass")
	}
}

// TestForwardBatchZeroAllocSteadyState pins the workspace contract: after
// warm-up, a batched forward pass performs zero heap allocations — at batch
// 8, and at batch 1, where the conv layers' stride-phase planes and
// tap-offset tables are built once and reused. (AllocsPerRun runs under
// GOMAXPROCS(1), so the goroutine fan-out of the large-kernel path is
// naturally excluded; the single-threaded schedule is exactly what the
// allocation contract covers.)
func TestForwardBatchZeroAllocSteadyState(t *testing.T) {
	for _, spec := range batchSpecs(t) {
		for _, b := range []int{1, 8} {
			net := spec.Build()
			net.Init(rand.New(rand.NewSource(56)))
			x := randomBatch(spec, b, rand.New(rand.NewSource(57)))
			net.ForwardBatch(x) // warm-up
			if avg := testing.AllocsPerRun(10, func() { net.ForwardBatch(x) }); avg != 0 {
				t.Errorf("%s: steady-state ForwardBatch at batch %d allocates %v times per call, want 0", spec.Name, b, avg)
			}
			// Dense's cached weight layout is rebuilt in place after an update.
			if avg := testing.AllocsPerRun(10, func() { net.Step(1e-3, b); net.ForwardBatch(x) }); avg != 0 {
				t.Errorf("%s: ForwardBatch at batch %d after a Step allocates %v times per call, want 0", spec.Name, b, avg)
			}
		}
	}
}

// TestBackwardBatchZeroAllocSteadyState extends the contract to the batched
// backward pass (including gradient accumulation and input gradients), at
// batch 1 and 8: the conv layers' gradient planes and grids are arena-owned.
func TestBackwardBatchZeroAllocSteadyState(t *testing.T) {
	for _, spec := range batchSpecs(t) {
		for _, b := range []int{1, 8} {
			net := spec.Build()
			net.Init(rand.New(rand.NewSource(58)))
			x := randomBatch(spec, b, rand.New(rand.NewSource(59)))
			grad := tensor.New(b, spec.FCs[len(spec.FCs)-1].Out)
			grad.Fill(0.25)
			net.ForwardBatch(x)
			net.BackwardBatch(grad) // warm-up
			avg := testing.AllocsPerRun(10, func() {
				net.ForwardBatch(x)
				net.BackwardBatch(grad)
			})
			if avg != 0 {
				t.Errorf("%s: steady-state forward+backward at batch %d allocates %v times per call, want 0", spec.Name, b, avg)
			}
		}
	}
}

// TestConvForwardRejectsInputSmallerThanKernel: an input the kernel does not
// fit must panic naming the layer and the input's shape, not deep in the
// workspace allocator.
func TestConvForwardRejectsInputSmallerThanKernel(t *testing.T) {
	c := NewConv2D("CONVX", 2, 4, 5, 5, 1, 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "CONVX") || !strings.Contains(msg, "[1 2 3 7]") {
			t.Errorf("want a panic naming CONVX and the input shape [1 2 3 7], got %q", msg)
		}
	}()
	c.ForwardBatch(tensor.New(1, 2, 3, 7))
}

// TestMaxPoolRejectsInputSmallerThanWindow: a window wider than its input
// must panic naming the layer and the input's shape instead of reading the
// next channel's values as this one's maximum.
func TestMaxPoolRejectsInputSmallerThanWindow(t *testing.T) {
	m := NewMaxPool("POOLX", 3, 2)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "POOLX") || !strings.Contains(msg, "[1 2 2 2]") {
			t.Errorf("want a panic naming POOLX and the input shape [1 2 2 2], got %q", msg)
		}
	}()
	m.ForwardBatch(tensor.New(1, 2, 2, 2))
}
