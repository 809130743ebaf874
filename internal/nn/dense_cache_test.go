package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"dronerl/internal/tensor"
)

// assertMatchesFreshNetwork runs net beside a freshly built network restored
// from net's current weights — one that has no layout cached — and requires
// Forward and ForwardBatch (batch 1, 2 and 32) to agree bit for bit. A Dense
// layer still multiplying against the layout of its previous weights fails it.
func assertMatchesFreshNetwork(t *testing.T, spec ArchSpec, net *Network) {
	t.Helper()
	fresh := spec.Build()
	if err := TakeSnapshot(net, spec.Name).Restore(fresh); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	x := sampleOf(randomBatch(spec, 1, rng), 0)
	if !net.Forward(x.Clone()).Equal(fresh.Forward(x.Clone())) {
		t.Error("Forward reads a stale weight layout")
	}
	for _, b := range []int{1, 2, 32} {
		xb := randomBatch(spec, b, rng)
		if !net.ForwardBatch(xb).Equal(fresh.ForwardBatch(xb)) {
			t.Errorf("ForwardBatch(batch %d) reads a stale weight layout", b)
		}
	}
}

// TestEveryWeightMutatorInvalidatesDenseCache: Dense multiplies against a
// cached transpose of its weights, so every writer of Param.W must call
// MarkChanged. Each case warms the cache on both forward paths, runs one
// writer, and compares against a network that never had a cache. (The
// writer outside this package, qnn.Network.WriteBack, has the same test
// beside it.)
func TestEveryWeightMutatorInvalidatesDenseCache(t *testing.T) {
	spec := tinyAlexSpec()
	other := spec.Build()
	other.Init(rand.New(rand.NewSource(62)))
	mutators := []struct {
		name   string
		mutate func(t *testing.T, net *Network)
	}{
		{"Init", func(t *testing.T, net *Network) { net.Init(rand.New(rand.NewSource(63))) }},
		{"Step", func(t *testing.T, net *Network) {
			rng := rand.New(rand.NewSource(68))
			for _, p := range net.TrainableParams() {
				p.G.RandN(rng, 1)
			}
			net.Step(0.1, 1)
		}},
		{"CopyWeightsFrom", func(t *testing.T, net *Network) {
			if err := net.CopyWeightsFrom(other); err != nil {
				t.Fatal(err)
			}
		}},
		{"Snapshot.Restore", func(t *testing.T, net *Network) {
			if err := TakeSnapshot(other, spec.Name).Restore(net); err != nil {
				t.Fatal(err)
			}
		}},
		{"PolicyBoard.Adopt", func(t *testing.T, net *Network) {
			b := NewPolicyBoard()
			b.Publish(other, spec.Name)
			if _, changed, err := b.Adopt(net, 0); err != nil || !changed {
				t.Fatalf("Adopt = (changed %v, %v)", changed, err)
			}
		}},
		// A tail publish that travelled the wire, as the dist actor adopts it.
		{"Snapshot.RestoreTrainable", func(t *testing.T, net *Network) {
			learner := spec.Build()
			learner.Init(rand.New(rand.NewSource(69)))
			learner.SetConfig(L2)
			net.SetConfig(L2)
			b := NewPolicyBoard()
			b.Publish(learner, spec.Name)
			tail, _ := b.Snapshot()
			if err := tail.RestoreTrainable(net); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			net := spec.Build()
			net.Init(rand.New(rand.NewSource(61)))
			rng := rand.New(rand.NewSource(64))
			xb := randomBatch(spec, 2, rng)
			x := sampleOf(xb, 0).Clone()
			net.ForwardBatch(xb)
			before := net.Forward(x.Clone())
			m.mutate(t, net)
			if net.Forward(x.Clone()).Equal(before) {
				t.Fatal("the writer left the output unchanged: the case proves nothing")
			}
			assertMatchesFreshNetwork(t, spec, net)
		})
	}
}

// TestDenseTransposesOncePerWeightChange counts the layout builds: any number
// of forward passes over unchanged weights share one transpose, a Step costs
// the trained layers exactly one more, and a frozen layer — FC1 under L2, the
// bulk of the FC weights — is never transposed again.
func TestDenseTransposesOncePerWeightChange(t *testing.T) {
	spec := tinyAlexSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(65)))
	net.SetConfig(L2)
	var dense []*Dense
	for _, l := range net.Layers {
		if d, ok := l.(*Dense); ok {
			dense = append(dense, d)
		}
	}
	builds := func() []int {
		var n []int
		for _, d := range dense {
			n = append(n, d.wTBuilds)
		}
		return n
	}
	rng := rand.New(rand.NewSource(66))
	pass := func() {
		for i := 0; i < 5; i++ {
			net.ForwardBatch(randomBatch(spec, 1+i, rng))
			net.Forward(sampleOf(randomBatch(spec, 1, rng), 0))
		}
	}
	pass()
	if got := builds(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("transposes after 10 passes on unchanged weights = %v, want one per layer", got)
	}
	net.Step(0.1, 1)
	pass()
	if got := builds(); !reflect.DeepEqual(got, []int{1, 2, 2}) {
		t.Fatalf("transposes after a Step under L2 = %v, want [1 2 2] (FC1 is frozen)", got)
	}
}

// TestDenseForwardMatchesScalarReference keeps an independent reference for
// the one forward kernel: each output is the single-accumulator,
// ascending-index dot product of a weight row with the input row, the bias
// added last — bit for bit, zero activations included, at every batch size.
func TestDenseForwardMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := NewDense("FC", 203, 37)
	d.Init(rng)
	d.Bias.W.RandN(rng, 1)
	for _, b := range refBatches {
		x := tensor.New(b, 203)
		x.RandN(rng, 1)
		for i := 0; i < x.Len(); i += 7 {
			x.Data()[i] = 0
		}
		got := d.ForwardBatch(x).Data()
		w := d.Weight.W.Data()
		for s := 0; s < b; s++ {
			xd := x.Data()[s*d.In : (s+1)*d.In]
			for o := 0; o < d.Out; o++ {
				var acc float32
				for i, v := range xd {
					acc += w[o*d.In+i] * v
				}
				if want := acc + d.Bias.W.Data()[o]; got[s*d.Out+o] != want {
					t.Fatalf("b=%d sample %d output %d = %v, scalar reference %v", b, s, o, got[s*d.Out+o], want)
				}
			}
		}
	}
}
