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
// does. Not to be re-captured for an engine change. Re-captured once, on the
// parent 209932f, when the backend began charging from StackTraffic: the
// forward stream gained NavNet's 24 conv-bias words (143 077 words, as quant
// streams) and conv compute became each layer's energy less that stream, as
// in Model.Breakdown. Before: L2 d6c22ce4…, L3 e4d92ca2…, L4 0509be6b…, E2E
// 86a779b7….
var systolicCostGolden = map[nn.Config]string{
	nn.L2:  "9f30e37ccce693acf5c80c44d73a7ec1f106e0b2ccd9a1362b8eee6541cac7c7",
	nn.L3:  "0870997931344e061b6cf34cb0e6d9ef3aee94ba816dcf59cc4f7830d5325a4f",
	nn.L4:  "22e550a8e409743e045b5cc8048c15b36766a2332671ad56788063104d2d5a86",
	nn.E2E: "4850d9fe5ae6c201fb1d95351891795f53918cb3bbe75f10d1f3363849c6357d",
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
