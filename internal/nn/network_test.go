package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
)

func buildTinyNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	spec := ArchSpec{
		Name:   "tiny",
		InputC: 1, InputH: 8, InputW: 8,
		Convs: []ConvSpec{{Name: "CONV1", InC: 1, OutC: 2, K: 3, Stride: 1, Pad: 1}},
		FCs: []FCSpec{
			{Name: "FC1", In: 128, Out: 16},
			{Name: "FC2", In: 16, Out: 8},
			{Name: "FC3", In: 8, Out: 4},
		},
		PoolK: 2, PoolStride: 2,
	}
	n := spec.Build()
	n.Init(rng)
	return n
}

func TestSetConfigBoundaries(t *testing.T) {
	n := buildTinyNet(1)
	// Layer order: CONV1, relu, flatten, FC1, relu, FC2, relu, FC3.
	n.SetConfig(E2E)
	if n.TrainFrom() != 0 {
		t.Errorf("E2E trainFrom = %d, want 0", n.TrainFrom())
	}
	n.SetConfig(L2)
	// Last 2 Dense layers are FC2 and FC3; boundary must sit at FC2.
	boundary := n.Layers[n.TrainFrom()]
	if boundary.Name() != "FC2" {
		t.Errorf("L2 boundary = %s, want FC2", boundary.Name())
	}
	n.SetConfig(L3)
	if n.Layers[n.TrainFrom()].Name() != "FC1" {
		t.Errorf("L3 boundary = %s, want FC1", n.Layers[n.TrainFrom()].Name())
	}
	// L4 asks for 4 trailing FC layers but only 3 exist: train everything.
	n.SetConfig(L4)
	if n.TrainFrom() != 0 {
		t.Errorf("L4 with 3 FC layers: trainFrom = %d, want 0", n.TrainFrom())
	}
}

// forwardBackwardOne runs one sample forward and backward as a batch of one
// with every output-gradient entry set to g.
func forwardBackwardOne(n *Network, x *tensor.Tensor, g float32) {
	grad := tensor.New(n.ForwardBatch(batchOfOne(x)).Shape()...)
	grad.Fill(g)
	n.BackwardBatch(grad)
}

func TestFrozenLayersDoNotAccumulate(t *testing.T) {
	n := buildTinyNet(2)
	n.SetConfig(L2)
	x := tensor.New(1, 8, 8)
	x.RandN(rand.New(rand.NewSource(3)), 1)
	forwardBackwardOne(n, x, 1)
	for _, l := range n.Layers[:n.TrainFrom()] {
		for _, p := range l.Params() {
			if p.G.SumAbs() != 0 {
				t.Errorf("frozen layer %s accumulated gradient", l.Name())
			}
		}
	}
	// And trainable ones must have received some gradient.
	var got float64
	for _, p := range n.TrainableParams() {
		got += p.G.SumAbs()
	}
	if got == 0 {
		t.Error("trainable layers accumulated no gradient")
	}
}

func TestStepOnlyTouchesTrainable(t *testing.T) {
	n := buildTinyNet(4)
	n.SetConfig(L2)
	x := tensor.New(1, 8, 8)
	x.RandN(rand.New(rand.NewSource(5)), 1)

	frozenBefore := make([][]float32, 0)
	for _, l := range n.Layers[:n.TrainFrom()] {
		for _, p := range l.Params() {
			frozenBefore = append(frozenBefore, append([]float32(nil), p.W.Data()...))
		}
	}
	forwardBackwardOne(n, x, 1)
	n.Step(0.1, 1)

	i := 0
	for _, l := range n.Layers[:n.TrainFrom()] {
		for _, p := range l.Params() {
			for j, v := range p.W.Data() {
				if v != frozenBefore[i][j] {
					t.Fatalf("frozen layer %s weight changed", l.Name())
				}
			}
			i++
		}
	}
}

func TestStepAveragesOverBatch(t *testing.T) {
	n := buildTinyNet(6)
	n.SetConfig(L2)
	// Accumulate the same gradient twice with batch=2: the update must
	// equal a single batch=1 update.
	n2 := buildTinyNet(6)
	n2.SetConfig(L2)

	x := tensor.New(1, 8, 8)
	x.RandN(rand.New(rand.NewSource(7)), 1)

	run := func(net *Network, times, batch int) {
		for i := 0; i < times; i++ {
			forwardBackwardOne(net, x, 0.5)
		}
		net.Step(0.1, batch)
	}
	run(n, 2, 2)
	run(n2, 1, 1)

	p1 := n.TrainableParams()
	p2 := n2.TrainableParams()
	for i := range p1 {
		for j := range p1[i].W.Data() {
			a := float64(p1[i].W.Data()[j])
			b := float64(p2[i].W.Data()[j])
			if math.Abs(a-b) > 1e-5 {
				t.Fatalf("batch averaging mismatch at %s[%d]: %v vs %v", p1[i].Name, j, a, b)
			}
		}
	}
}

func TestStepPanicsOnZeroBatch(t *testing.T) {
	n := buildTinyNet(8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Step(0.1, 0)
}

func TestZeroGrad(t *testing.T) {
	n := buildTinyNet(9)
	x := tensor.New(1, 8, 8)
	x.RandN(rand.New(rand.NewSource(10)), 1)
	forwardBackwardOne(n, x, 1)
	n.ZeroGrad()
	for _, p := range n.Params() {
		if p.G.SumAbs() != 0 {
			t.Fatalf("gradient %s not cleared", p.Name)
		}
	}
}

func TestClipGrad(t *testing.T) {
	n := buildTinyNet(11)
	x := tensor.New(1, 8, 8)
	x.RandN(rand.New(rand.NewSource(12)), 1)
	forwardBackwardOne(n, x, 100)
	norm := n.ClipGrad(1.0)
	if norm <= 1.0 {
		t.Skip("gradient did not exceed the clip threshold")
	}
	var m float64
	for _, p := range n.TrainableParams() {
		if v := p.G.MaxAbs(); v > m {
			m = v
		}
	}
	if m > 1.0+1e-5 {
		t.Errorf("post-clip norm %v > limit", m)
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	a := buildTinyNet(13)
	b := buildTinyNet(14)
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatalf("param %s not copied", pa[i].Name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := buildTinyNet(15)
	s := TakeSnapshot(a, "tiny")
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := buildTinyNet(16)
	if err := s2.Restore(b); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatalf("param %s not restored", pa[i].Name)
		}
	}
}

func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	a := buildTinyNet(17)
	s := TakeSnapshot(a, "tiny")
	other := NavNetSpec().Build()
	if err := s.Restore(other); err == nil {
		t.Error("expected error restoring into a different architecture")
	}
}

func TestTrainableWeightCountMatchesSpec(t *testing.T) {
	spec := NavNetSpec()
	n := spec.Build()
	for _, cfg := range []Config{L2, L3, L4, E2E} {
		n.SetConfig(cfg)
		if got, want := n.TrainableWeightCount(), spec.TrainedWeights(cfg); got != want {
			t.Errorf("%v trainable weights = %d, spec says %d", cfg, got, want)
		}
	}
	if n.WeightCount() != spec.TotalWeights() {
		t.Errorf("network weights %d != spec %d", n.WeightCount(), spec.TotalWeights())
	}
}
