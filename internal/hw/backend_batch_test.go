package hw

import (
	"math/rand"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TestSystolicInferBatchBitIdentical asserts the batched entry returns, row
// for row, exactly what B single-sample Infer calls return — the int16
// engine is word-exact either way — while charging one stack weight stream
// for the whole batch and a pipelined (sub-linear) latency.
func TestSystolicInferBatchBitIdentical(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(61)))

	ref, err := NewSystolicBackend(net, spec, nn.E2E)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewSystolicBackend(net, spec, nn.E2E)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	actions := spec.FCs[len(spec.FCs)-1].Out
	n := nn.NavNetInput * nn.NavNetInput
	for _, bsz := range []int{1, 4, 8} {
		stack := tensor.New(bsz, 1, nn.NavNetInput, nn.NavNetInput)
		stack.RandUniform(rng, 1)
		want := make([][]float32, bsz)
		for s := 0; s < bsz; s++ {
			obs := tensor.FromSlice(append([]float32(nil), stack.Data()[s*n:(s+1)*n]...),
				1, nn.NavNetInput, nn.NavNetInput)
			want[s] = append([]float32(nil), ref.Infer(obs)...)
		}
		got := bb.InferBatch(stack)
		if len(got) != bsz*actions {
			t.Fatalf("batch %d: InferBatch returned %d values, want %d", bsz, len(got), bsz*actions)
		}
		for s := 0; s < bsz; s++ {
			for i := 0; i < actions; i++ {
				if got[s*actions+i] != want[s][i] {
					t.Fatalf("batch %d sample %d: Q[%d] = %v, want %v (must be bit-identical)",
						bsz, s, i, got[s*actions+i], want[s][i])
				}
			}
		}
	}

	// 1 + 4 + 8 samples in 3 batches: three weight streams against the
	// reference's thirteen.
	const batches, samples = 3, 13
	if got := bb.Cost().Inferences; got != samples {
		t.Errorf("batched backend counted %d inferences, want %d", got, samples)
	}
	gotBits := bb.Ledger().Total("STT-MRAM").ReadBits
	refBits := ref.Ledger().Total("STT-MRAM").ReadBits
	if want := refBits * batches / samples; gotBits != want {
		t.Errorf("batched MRAM reads %d bits, want %d (one stream per batch)", gotBits, want)
	}
	if bb.Cost().EnergyMJ >= ref.Cost().EnergyMJ {
		t.Errorf("batched energy %v mJ not below serial %v mJ", bb.Cost().EnergyMJ, ref.Cost().EnergyMJ)
	}
	if bb.Cost().LatencyMS >= ref.Cost().LatencyMS {
		t.Errorf("batched latency %v ms not below serial %v ms (fill/drain not amortized)",
			bb.Cost().LatencyMS, ref.Cost().LatencyMS)
	}
	if bb.Cost().Cycles >= ref.Cost().Cycles {
		t.Errorf("batched cycles %d not below serial %d", bb.Cost().Cycles, ref.Cost().Cycles)
	}
}
