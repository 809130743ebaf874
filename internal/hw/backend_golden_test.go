package hw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
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
// 86a779b7…. Re-captured once more, on the parent 33455a1, with Cost().Cycles
// taken out of the hash: cycles became the charged latency at the array
// clock, and everything else the hash covers was held fixed across that
// change. Before: L2 9f30e37c…, L3 08709979…, L4 22e550a8…, E2E 4850d9fe….
// Cycles are held to the latency by TestSystolicCyclesAreChargedLatency.
var systolicCostGolden = map[nn.Config]string{
	nn.L2:  "ab22a5b84247b5e4c15e30779ba39e84a3935d4fa60a57139f33b92f05da6d85",
	nn.L3:  "907d44c5f7d5ead5cc2eb4f9d5468dc5ca8140c9dae0004ed7a44d421100a7a1",
	nn.L4:  "f9ed58858eb26cc79e295654cfa67b34785062f7566cc9f0e3c24dbbe3a8b6fd",
	nn.E2E: "5c479a0f168164a6f60feddf1caafe1b596c29dc27e49d4ec6583cbbf64d50c7",
}

// TestSystolicCostGolden pins the systolic backend's accounting bit for bit:
// single inferences, pipelined batches of 1, 4, 8 and 32, and charged train
// steps, hashed after every call.
func TestSystolicCostGolden(t *testing.T) {
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
			put(float64(c.Inferences), c.EnergyMJ, c.LatencyMS)
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
