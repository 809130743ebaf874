package nn

import (
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

// tinyAlexSpec is a small architecture exercising every batched layer kind:
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

// sampleView returns sample s of an NCHW batch as a CHW view.
func sampleView(batch *tensor.Tensor, s int) *tensor.Tensor {
	c, h, w := batch.Dim(1), batch.Dim(2), batch.Dim(3)
	n := c * h * w
	return tensor.FromSlice(batch.Data()[s*n:(s+1)*n], c, h, w)
}

// TestForwardBatchMatchesSerial pins the tentpole contract: row b of
// ForwardBatch equals Forward(sample b) bit for bit, for every architecture
// and several batch sizes, including repeated batched calls over reused
// workspaces.
func TestForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, spec := range batchSpecs(t) {
		net := spec.Build()
		net.Init(rng)
		for _, b := range []int{1, 3, 5} {
			x := randomBatch(spec, b, rng)
			// Two batched passes: the second runs entirely on warm
			// workspaces and must be unaffected by their contents.
			net.ForwardBatch(x)
			got := net.ForwardBatch(x)
			actions := got.Dim(1)
			for s := 0; s < b; s++ {
				want := net.Forward(sampleView(x, s))
				row := got.Data()[s*actions : (s+1)*actions]
				for i, v := range want.Data() {
					if row[i] != v {
						t.Fatalf("%s b=%d sample %d q[%d]: batched %v != serial %v",
							spec.Name, b, s, i, row[i], v)
					}
				}
			}
		}
	}
}

// TestBackwardBatchMatchesSerial drives two identically initialized networks
// through the same minibatch — one with B serial forward/backward passes,
// one with a single batched pass — and requires bit-identical parameter
// gradients under both an E2E and a frozen (L2) topology.
func TestBackwardBatchMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{E2E, L2} {
		for _, spec := range batchSpecs(t) {
			for _, b := range []int{1, 4} {
				serial := spec.Build()
				serial.Init(rand.New(rand.NewSource(52)))
				serial.SetConfig(cfg)
				batched := spec.Build()
				batched.Init(rand.New(rand.NewSource(52)))
				batched.SetConfig(cfg)

				rng := rand.New(rand.NewSource(53))
				x := randomBatch(spec, b, rng)
				actions := spec.FCs[len(spec.FCs)-1].Out
				grad := tensor.New(b, actions)
				grad.RandN(rng, 1)
				// RL-style sparsity: most Q-head gradient entries are zero.
				for i := 0; i < grad.Len(); i++ {
					if i%actions != i/actions%actions {
						grad.Data()[i] = 0
					}
				}

				for s := 0; s < b; s++ {
					serial.Forward(sampleView(x, s))
					serial.Backward(tensor.FromSlice(
						append([]float32(nil), grad.Data()[s*actions:(s+1)*actions]...), actions))
				}
				batched.ForwardBatch(x)
				batched.BackwardBatch(grad)

				sp, bp := serial.Params(), batched.Params()
				for i := range sp {
					if !sp[i].G.Equal(bp[i].G) {
						t.Errorf("%s cfg=%v b=%d: gradient of %s diverges between serial and batched",
							spec.Name, cfg, b, sp[i].Name)
					}
				}
			}
		}
	}
}

// TestBatchAndSerialCachesAreIndependent interleaves a single-sample Forward
// between ForwardBatch and BackwardBatch; the batched gradients must be
// unaffected because the two paths keep separate caches.
func TestBatchAndSerialCachesAreIndependent(t *testing.T) {
	spec := tinyAlexSpec()
	mk := func() *Network {
		n := spec.Build()
		n.Init(rand.New(rand.NewSource(54)))
		return n
	}
	rng := rand.New(rand.NewSource(55))
	x := randomBatch(spec, 3, rng)
	grad := tensor.New(3, 3)
	grad.RandN(rng, 1)

	clean, dirty := mk(), mk()
	clean.ForwardBatch(x)
	clean.BackwardBatch(grad)

	dirty.ForwardBatch(x)
	dirty.Forward(sampleView(x, 1)) // serial call in between
	dirty.BackwardBatch(grad)

	cp, dp := clean.Params(), dirty.Params()
	for i := range cp {
		if !cp[i].G.Equal(dp[i].G) {
			t.Errorf("gradient of %s changed when a serial Forward interleaved", cp[i].Name)
		}
	}
}

// TestForwardBatchZeroAllocSteadyState pins the workspace contract: after
// warm-up, a batched forward pass performs zero heap allocations.
// (AllocsPerRun runs under GOMAXPROCS(1), so the goroutine fan-out of the
// large-kernel path is naturally excluded; the serial schedule is exactly
// what the allocation contract covers.)
func TestForwardBatchZeroAllocSteadyState(t *testing.T) {
	for _, spec := range batchSpecs(t) {
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(56)))
		x := randomBatch(spec, 8, rand.New(rand.NewSource(57)))
		net.ForwardBatch(x) // warm-up
		if avg := testing.AllocsPerRun(10, func() { net.ForwardBatch(x) }); avg != 0 {
			t.Errorf("%s: steady-state ForwardBatch allocates %v times per call, want 0", spec.Name, avg)
		}
		// Dense's cached weight layout is rebuilt in place after an update.
		if avg := testing.AllocsPerRun(10, func() { net.Step(1e-3, 8); net.ForwardBatch(x) }); avg != 0 {
			t.Errorf("%s: ForwardBatch after a Step allocates %v times per call, want 0", spec.Name, avg)
		}
	}
}

// TestBackwardBatchZeroAllocSteadyState extends the contract to the batched
// backward pass (including gradient accumulation and input gradients).
func TestBackwardBatchZeroAllocSteadyState(t *testing.T) {
	for _, spec := range batchSpecs(t) {
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(58)))
		x := randomBatch(spec, 8, rand.New(rand.NewSource(59)))
		grad := tensor.New(8, spec.FCs[len(spec.FCs)-1].Out)
		grad.Fill(0.25)
		net.ForwardBatch(x)
		net.BackwardBatch(grad) // warm-up
		avg := testing.AllocsPerRun(10, func() {
			net.ForwardBatch(x)
			net.BackwardBatch(grad)
		})
		if avg != 0 {
			t.Errorf("%s: steady-state forward+backward allocates %v times per call, want 0", spec.Name, avg)
		}
	}
}

// TestConvBatchedHonorsDisableColsCaching pins that the memory-bounding flag
// produces bit-identical results on the batched path while dropping the
// retained im2col panel (BackwardBatch re-expands from the cached input).
func TestConvBatchedHonorsDisableColsCaching(t *testing.T) {
	build := func(disable bool) *Conv2D {
		c := NewConv2D("CONV", 3, 4, 3, 3, 2, 1)
		c.Init(rand.New(rand.NewSource(81)))
		c.DisableColsCaching = disable
		return c
	}
	cached, bounded := build(false), build(true)
	in := tensor.New(3, 3, 9, 9)
	in.RandN(rand.New(rand.NewSource(82)), 1)
	grad := tensor.New(3, 4, 5, 5)
	grad.RandN(rand.New(rand.NewSource(83)), 1)

	outC := cached.ForwardBatch(in)
	outB := bounded.ForwardBatch(in)
	if !outC.Equal(outB) {
		t.Fatal("DisableColsCaching changed ForwardBatch output")
	}
	dinC := cached.BackwardBatch(grad, true)
	dinB := bounded.BackwardBatch(grad, true)
	if !dinC.Equal(dinB) {
		t.Fatal("DisableColsCaching changed BackwardBatch input gradient")
	}
	if !cached.Weight.G.Equal(bounded.Weight.G) || !cached.Bias.G.Equal(bounded.Bias.G) {
		t.Fatal("DisableColsCaching changed accumulated gradients")
	}
}
