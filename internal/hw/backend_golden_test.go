package hw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// systolicCostGolden is the SHA-256 of every Cost(), Breakdown() and device
// ledger total the schedule in TestSystolicCostGolden observes, per topology.
// Captured at 171c5ea, while the backend still computed its replies through
// a float emulation of the PE array: the price list is a function of the
// plan fixed at construction, so it must not move when the replies' engine
// does. Not to be re-captured for an engine change.
var systolicCostGolden = map[nn.Config]string{
	nn.L2:  "d6c22ce441df5013c5c81141c7f8fc4e3af1082c64f452457a6ec67dac19950f",
	nn.L3:  "e4d92ca2acc42ccb5826ca3aa66f333ef8845c2e1e7fb5e0bb9c8bee670d7777",
	nn.L4:  "0509be6b16b03789beb4f4a155411df9421579a1ebacfa789aa2b1e8f7b035f4",
	nn.E2E: "86a779b75b08350a42024bce6083d2eac0f0206f95a1b5e818f5466e822a4f68",
}

// TestSystolicCostGolden pins the systolic backend's accounting bit for bit:
// single inferences, pipelined batches of 1, 4, 8 and 32, and charged train
// steps, hashed after every call.
func TestSystolicCostGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("cost hashes were captured on amd64 (and hold on 386); %s fuses multiply-adds and rounds differently", runtime.GOARCH)
	}
	for _, cfg := range nn.Configs {
		b, _ := newTestBackend(t, cfg, 71)
		rng := rand.New(rand.NewSource(72))
		h := sha256.New()
		var buf [8]byte
		put := func(vs ...float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		observe := func() {
			c := b.Cost()
			put(float64(c.Inferences), c.EnergyMJ, c.LatencyMS, float64(c.Cycles))
			br := b.Breakdown()
			put(float64(br.Config), br.ComputeMJ, br.MRAMReadMJ, br.NVMWriteMJ, br.LinkMJ)
			for _, dev := range []string{"STT-MRAM", "SRAM", "DRAM"} {
				tot := b.Ledger().Total(dev)
				put(float64(tot.ReadBits), float64(tot.WriteBits), tot.TimeNS, tot.EnergyPJ)
			}
		}
		obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		for i := 0; i < 3; i++ {
			obs.RandUniform(rng, 1)
			b.Infer(obs)
			observe()
		}
		for _, bsz := range []int{1, 4, 8, 32} {
			batch := tensor.New(bsz, 1, nn.NavNetInput, nn.NavNetInput)
			batch.RandUniform(rng, 1)
			b.InferBatch(batch)
			observe()
			b.ChargeTrainStep()
			observe()
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != systolicCostGolden[cfg] {
			t.Errorf("%v: cost hash %s, want %s", cfg, got, systolicCostGolden[cfg])
		}
	}
}
