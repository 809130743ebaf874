package qnn

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/fixed"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

func trainedNavNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	n := nn.NavNetSpec().Build()
	n.Init(rng)
	return n
}

// greedy is the argmax action of q's integer Q-values for one CHW frame.
func greedy(q *Network, x *tensor.Tensor) int {
	sh := x.Shape()
	vs := q.Forward(x.Data(), [3]int{sh[0], sh[1], sh[2]})
	best := 0
	for i, v := range vs {
		if v > vs[best] {
			best = i
		}
	}
	return best
}

func depthImage(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32() // depth images live in [0,1]
	}
	return x
}

func TestCompileNavNet(t *testing.T) {
	q, err := Compile(trainedNavNet(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Layer sequence preserved: conv,relu x2, flatten, (dense,relu) x3, dense.
	if len(q.Layers) != 12 {
		t.Fatalf("%d layers, want 12", len(q.Layers))
	}
	if q.Layers[0].Name() != "CONV1" {
		t.Errorf("first layer %s", q.Layers[0].Name())
	}
}

func TestCompileRejectsLRN(t *testing.T) {
	net := nn.NewNetwork(nn.NewLRN("norm"))
	if _, err := Compile(net, Options{}); err == nil {
		t.Fatal("expected LRN rejection")
	}
}

func TestIntegerForwardMatchesFloat(t *testing.T) {
	net := trainedNavNet(2)
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		x := depthImage(100 + seed)
		ref := net.Forward(x.Clone())
		qs := q.Forward(x.Data(), [3]int{1, nn.NavNetInput, nn.NavNetInput})
		if len(qs) != ref.Len() {
			t.Fatalf("q output %d values, float %d", len(qs), ref.Len())
		}
		for i, v := range qs {
			got := float64(v)
			want := float64(ref.At(i))
			if math.Abs(got-want) > 0.08 {
				t.Errorf("seed %d Q[%d]: integer %.4f vs float %.4f", seed, i, got, want)
			}
		}
	}
}

func TestIntegerGreedyAgreement(t *testing.T) {
	// Across many random observations the integer engine must pick the
	// same action as the float reference in the overwhelming majority of
	// cases (ties/near-ties may flip).
	net := trainedNavNet(3)
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 60
	for seed := int64(0); seed < int64(total); seed++ {
		x := depthImage(200 + seed)
		if greedy(q, x) == net.Forward(x.Clone()).ArgMax() {
			agree++
		}
	}
	if agree < total*9/10 {
		t.Errorf("greedy agreement %d/%d, want >= 90%%", agree, total)
	}
}

func TestIntegerForwardDeterministic(t *testing.T) {
	net := trainedNavNet(4)
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := depthImage(5)
	shape := [3]int{1, nn.NavNetInput, nn.NavNetInput}
	a := slices.Clone(q.Forward(x.Data(), shape))
	if b := q.Forward(x.Data(), shape); !slices.Equal(a, b) {
		t.Fatal("integer inference must be bit-exact deterministic")
	}
}

func TestWeightBitsMatchesModelSize(t *testing.T) {
	net := trainedNavNet(5)
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(nn.NavNetSpec().TotalWeights()) * 16
	if got := q.WeightBits(); got != want {
		t.Errorf("weight traffic %d bits, want %d", got, want)
	}
}

func TestEndToEndFlightWithIntegerPolicy(t *testing.T) {
	// The integer engine must be usable as the deployed flight policy:
	// fly it in a world and check it behaves like the float policy.
	net := trainedNavNet(6)
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := env.IndoorApartment(7)
	agreements, steps := 0, 60
	for i := 0; i < steps; i++ {
		obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
		qa := greedy(q, obs)
		fa := net.Forward(obs.Clone()).ArgMax()
		if qa == fa {
			agreements++
		}
		w.Step(env.Action(qa))
	}
	if agreements < steps*8/10 {
		t.Errorf("in-flight agreement %d/%d too low", agreements, steps)
	}
}

func TestSaturationOnExtremeWeights(t *testing.T) {
	// A dense layer with huge weights must saturate, not wrap.
	d := &stage{tLayer: newDense("sat", 2, 1, words{
		w: []int16{32767, 32767}, b: []int16{0},
		aFrac: 8, wFrac: 13,
	}), fmt: fixed.Q78}
	in := QTensor{Shape: []int{2}, Data: fixed.Vec{32767, 32767}, Fmt: fixed.Q78}
	out := d.Forward(in)
	if out.Data[0] != 32767 {
		t.Errorf("expected positive saturation, got %d", out.Data[0])
	}
}

func TestMaxPoolInteger(t *testing.T) {
	m := &stage{tLayer: &tPool{layerName: "pool", k: 2, stride: 2}, fmt: fixed.Q78}
	in := QTensor{
		Shape: []int{1, 2, 2},
		Data:  fixed.Vec{1, 5, 3, 2},
		Fmt:   fixed.Q78,
	}
	out := m.Forward(in)
	if len(out.Data) != 1 || out.Data[0] != 5 {
		t.Errorf("maxpool = %v", out.Data)
	}
}

// TestMaxPoolRejectsInputSmallerThanWindow: a window wider than its input
// must panic naming the layer and the input's shape, through a stage's
// Forward as through the walk, instead of reading the next channel's words as
// this one's maximum and then running off the end of the batch.
func TestMaxPoolRejectsInputSmallerThanWindow(t *testing.T) {
	for name, pool := range map[string]func(){
		"POOLQ": func() {
			m := &stage{tLayer: &tPool{layerName: "POOLQ", k: 3, stride: 2}, fmt: fixed.Q78}
			m.Forward(QTensor{Shape: []int{2, 2, 2}, Data: make(fixed.Vec, 8), Fmt: fixed.Q78})
		},
		"POOLT": func() {
			m := &tPool{layerName: "POOLT", k: 3, stride: 2}
			m.forwardBatch(make([]int16, 8), 1, [3]int{2, 2, 2}, &batchWorkspace{}, 0)
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "[1 2 2 2]") {
					t.Errorf("want a panic naming %s and the input shape [1 2 2 2], got %q", name, msg)
				}
			}()
			pool()
		}()
	}
}

func TestReLUInteger(t *testing.T) {
	r := &stage{tLayer: &tReLU{layerName: "relu"}, fmt: fixed.Q78}
	in := QTensor{Shape: []int{3}, Data: fixed.Vec{-7, 0, 9}, Fmt: fixed.Q78}
	out := r.Forward(in)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 9 {
		t.Errorf("relu = %v", out.Data)
	}
	// Input must not be mutated.
	if in.Data[0] != -7 {
		t.Error("ReLU mutated its input")
	}
}

func TestConvIntegerKnownValues(t *testing.T) {
	// 1x1x2x2 input, 1 channel, 2x2 kernel of ones, no pad: output =
	// sum of inputs.
	one := int16(fixed.Format{Frac: 13}.One())
	c := &stage{tLayer: newConv("c", 1, 1, 2, 1, 0, words{
		w: []int16{one, one, one, one}, b: []int16{0},
		aFrac: 8, wFrac: 13,
	}), fmt: fixed.Q78}
	in := QTensor{Shape: []int{1, 2, 2}, Fmt: fixed.Q78,
		Data: fixed.Vec{fixed.Q78.FromFloat(0.5), fixed.Q78.FromFloat(0.25),
			fixed.Q78.FromFloat(0.125), fixed.Q78.FromFloat(0.125)}}
	out := c.Forward(in)
	got := fixed.Q78.ToFloat(out.Data[0])
	if math.Abs(got-1.0) > 2*fixed.Q78.Eps() {
		t.Errorf("conv sum = %v, want 1.0", got)
	}
}

// TestConvRejectsWrongChannels: a convolution handed samples with another
// channel count panics naming the layer, as Dense does for a wrong width,
// rather than reading channel 0 alone (a lone sample) or splitting one
// sample's channels into several samples (a batch).
func TestConvRejectsWrongChannels(t *testing.T) {
	b, err := NewBackend(nn.NewNetwork(nn.NewConv2D("CONVX", 1, 8, 3, 3, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	c := b.net.Layers[0]
	for name, call := range map[string]func(){
		"sample": func() { c.Forward(QTensor{Shape: []int{2, 8, 8}, Data: make(fixed.Vec, 2*8*8), Fmt: fixed.Q78}) },
		"batch":  func() { b.InferBatch(tensor.New(2, 2, 8, 8)) },
		"rank":   func() { c.Forward(QTensor{Shape: []int{8, 8}, Data: make(fixed.Vec, 8*8), Fmt: fixed.Q78}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "CONVX") {
					t.Errorf("%s: panic %q does not name the layer", name, msg)
				}
			}()
			call()
			t.Errorf("%s: a wrong channel count was accepted", name)
		}()
	}
}

// TestLayerForwardMatchesScalarReference holds the exported per-layer Forward
// — the batch of one of each stage's kernel, a folded ReLU's clamp included —
// to the scalar reference layer by layer down NavNet on a real frame (and on
// a pooling layer NavNet does not have), shapes included, and checks the
// output is the caller's to keep: a second call does not overwrite the first.
func TestLayerForwardMatchesScalarReference(t *testing.T) {
	q, err := Compile(trainedNavNet(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	layers := append([]Layer{&stage{tLayer: &tPool{layerName: "pool", k: 3, stride: 2}, fmt: q.InFmt}}, q.Layers...)
	obs := scenarioObs(t, "indoor-apartment", 2, 9)
	in, other := frameOf(q, obs[0]), frameOf(q, obs[1])
	for i, l := range layers {
		want := serialLayer(l, in)
		got := l.Forward(in)
		if !slices.Equal(got.Shape, want.Shape) || !slices.Equal(got.Data, want.Data) || got.Fmt != want.Fmt {
			t.Fatalf("layer %d (%s): Forward differs from the scalar reference (shape %v vs %v)", i, l.Name(), got.Shape, want.Shape)
		}
		l.Forward(other)
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("layer %d (%s): a later Forward overwrote an earlier result", i, l.Name())
		}
		if i == 0 {
			continue // the pooling layer is a side branch: NavNet starts from the frame
		}
		in, other = want, serialLayer(l, other)
	}
}
