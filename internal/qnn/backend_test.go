package qnn

import (
	"math/rand"
	"slices"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TestQuantBackendMatchesIntegerEngine asserts the backend's greedy argmax
// is exactly the compiled integer network's decision, and that every Infer
// charges one full weight stream against the STT-MRAM ledger.
func TestQuantBackendMatchesIntegerEngine(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(11)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		obs.RandUniform(rng, 1)
		q := b.Infer(obs)
		got := 0
		for i, v := range q {
			if v > q[got] {
				got = i
			}
		}
		if want := greedy(ref, obs); got != want {
			t.Errorf("trial %d: backend greedy %d, integer engine %d", trial, got, want)
		}
	}

	cost := b.Cost()
	if cost.Inferences != trials {
		t.Errorf("cost counted %d inferences, want %d", cost.Inferences, trials)
	}
	if cost.EnergyMJ <= 0 || cost.LatencyMS <= 0 {
		t.Errorf("cost %+v must price the weight stream", cost)
	}
	mram := b.Ledger().Total("STT-MRAM")
	if want := trials * ref.WeightBits(); mram.ReadBits != want {
		t.Errorf("ledger read %d bits, want %d (one weight stream per inference)", mram.ReadBits, want)
	}
	if mram.WriteBits != 0 {
		t.Errorf("inference wrote %d bits to the stack", mram.WriteBits)
	}
}

func TestQuantBackendRegistered(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(3)))
	b, err := nn.NewBackendFor("quant", net, spec, nn.L3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "quant" {
		t.Errorf("name %q", b.Name())
	}
	if _, ok := b.(nn.CostReporter); !ok {
		t.Error("quant backend must report costs")
	}
}

// sameWords requires qb and tb to answer every frame with the same Q-value
// bits — the same output words, since dequantization is exact and
// injective — and returns tb's answers.
func sameWords(t *testing.T, state string, qb *Backend, tb *TrainBackend, frames []*tensor.Tensor) [][]float32 {
	t.Helper()
	var out [][]float32
	for i, f := range frames {
		want := slices.Clone(tb.Infer(f))
		if got := qb.Infer(f); !slices.Equal(got, want) {
			t.Fatalf("%s: frame %d: quant answers %v, quant-train %v", state, i, got, want)
		}
		out = append(out, want)
	}
	return out
}

// TestServeAnswersWhatTheDroneTrainsOn holds the one-engine claim: compiled
// from one meta-trained NavNet, the quant backend (what the daemon serves)
// and the quant-train backend (what the drone trains) answer every catalog
// scenario's frames in identical Q words, at L3 and at E2E — as compiled,
// and again after Train steps have rewritten the trainable words, once the
// written-back float net is compiled afresh into quant, as a policy publish
// does. (internal/serve carries the third state: that snapshot reloaded into
// a running quant daemon.)
func TestServeAnswersWhatTheDroneTrainsOn(t *testing.T) {
	var frames []*tensor.Tensor
	for si, name := range env.ScenarioNames() {
		frames = append(frames, scenarioObs(t, name, 6, int64(500+si))...)
	}
	pool := goldenMeta(t).pool
	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		t.Run(cfg.String(), func(t *testing.T) {
			net := metaTrainedNavNet()()
			net.SetConfig(cfg)
			tb, err := NewTrainBackend(net, TrainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			qb, err := NewBackend(net)
			if err != nil {
				t.Fatal(err)
			}
			before := sameWords(t, "as compiled", qb, tb, frames)

			rng := rand.New(rand.NewSource(82))
			for step := 0; step < 6; step++ {
				tb.Train(goldenBatchAt(rng, pool)) // writes back into net
			}
			if qb, err = NewBackend(net); err != nil {
				t.Fatal(err)
			}
			after := sameWords(t, "after Train and write-back", qb, tb, frames)
			if slices.EqualFunc(before, after, slices.Equal) {
				t.Fatal("six Train steps moved no Q word: the second state proves nothing")
			}
		})
	}
}
