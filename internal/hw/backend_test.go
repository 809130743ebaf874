package hw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

func newTestBackend(t *testing.T, cfg nn.Config, seed int64) (*SystolicBackend, *nn.Network) {
	t.Helper()
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(seed)))
	net.SetConfig(cfg)
	b, err := NewSystolicBackend(net, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b, net
}

// metaTrainedNavNet is a NavNet after a short seeded end-to-end
// meta-training run on the indoor meta-environment — the weights a deployed
// drone starts from, as opposed to a fresh initialization.
func metaTrainedNavNet() *nn.Network {
	const seed, iters = 5, 100
	agent := rl.NewAgent(nn.NavNetSpec(), nn.E2E, rl.Options{Seed: seed, BatchSize: 4, EpsDecaySteps: iters / 2})
	(&rl.OnlineLoop{Agent: agent, Worlds: []*env.World{env.IndoorMeta(seed)}}).Run(context.Background(), iters)
	return agent.Net
}

// replyFrames returns 8 depth frames from every builtin scenario, flown
// with seeded random actions, followed by 16 dense uniform frames.
func replyFrames() []*tensor.Tensor {
	var frames []*tensor.Tensor
	for si, sc := range env.Scenarios() {
		w := sc.Build(int64(400 + si))
		w.Spawn()
		rng := rand.New(rand.NewSource(int64(500 + si)))
		frames = append(frames, env.DepthImage(w.Depths(), w.Camera.MaxRange))
		for len(frames)%8 != 0 {
			res := w.Step(env.Action(rng.Intn(env.NumActions)))
			frames = append(frames, env.DepthImage(res.Depths, w.Camera.MaxRange))
		}
	}
	rng := rand.New(rand.NewSource(600))
	for i := 0; i < 16; i++ {
		f := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		f.RandUniform(rng, 1)
		frames = append(frames, f)
	}
	return frames
}

// TestSystolicRepliesAreQuantWords: the accelerator computes on a 16-bit
// datapath, so the systolic backend's Q-values are the int16 engine's
// dequantized words — bit-equal to the "quant" backend's, frame by frame
// through Infer and batch by batch through InferBatch — on a seeded-init
// and on a meta-trained NavNet.
func TestSystolicRepliesAreQuantWords(t *testing.T) {
	spec := nn.NavNetSpec()
	initNet := spec.Build()
	initNet.Init(rand.New(rand.NewSource(21)))
	frames := replyFrames()
	n := nn.NavNetInput * nn.NavNetInput
	for _, tc := range []struct {
		name string
		net  *nn.Network
	}{{"init", initNet}, {"meta", metaTrainedNavNet()}} {
		sys, err := NewSystolicBackend(tc.net, spec, nn.L3)
		if err != nil {
			t.Fatal(err)
		}
		quant, err := nn.NewBackendFor("quant", tc.net, spec, nn.L3)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			want := quant.Infer(f)
			if got := sys.Infer(f); !bitEqual(got, want) {
				t.Fatalf("%s frame %d: systolic Infer %v, quant %v", tc.name, i, got, want)
			}
		}
		const bsz = 8
		batch := tensor.New(bsz, 1, nn.NavNetInput, nn.NavNetInput)
		for lo := 0; lo+bsz <= len(frames); lo += bsz {
			for s := 0; s < bsz; s++ {
				copy(batch.Data()[s*n:(s+1)*n], frames[lo+s].Data())
			}
			want := quant.InferBatch(batch)
			if got := sys.InferBatch(batch); !bitEqual(got, want) {
				t.Fatalf("%s frames %d..%d: systolic InferBatch %v, quant %v", tc.name, lo, lo+bsz-1, got, want)
			}
		}
	}
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSystolicBackendBreakdownConsistency is the pinned accounting test:
// the sink components must sum to the backend's total cost, the ledger's
// device totals must match the breakdown's memory components within 1%,
// and inference under any topology must never write the stack.
func TestSystolicBackendBreakdownConsistency(t *testing.T) {
	for _, cfg := range nn.Configs {
		b, _ := newTestBackend(t, cfg, 31)
		rng := rand.New(rand.NewSource(32))
		obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		const inferences = 12
		for i := 0; i < inferences; i++ {
			obs.RandUniform(rng, 1)
			b.Infer(obs)
		}

		cost := b.Cost()
		if cost.Inferences != inferences {
			t.Fatalf("%v: counted %d inferences", cfg, cost.Inferences)
		}
		if cost.EnergyMJ <= 0 || cost.LatencyMS <= 0 || cost.Cycles <= 0 {
			t.Fatalf("%v: cost %+v must be positive", cfg, cost)
		}

		br := b.Breakdown()
		if br.NVMWriteMJ != 0 {
			t.Errorf("%v: inference wrote the stack: %v mJ", cfg, br.NVMWriteMJ)
		}
		sum := br.ComputeMJ + br.MRAMReadMJ + br.NVMWriteMJ + br.LinkMJ
		if rel := math.Abs(sum-br.TotalMJ()) / br.TotalMJ(); rel > 1e-12 {
			t.Errorf("%v: components sum %v != TotalMJ %v", cfg, sum, br.TotalMJ())
		}
		if rel := math.Abs(br.TotalMJ()-cost.EnergyMJ) / cost.EnergyMJ; rel > 0.01 {
			t.Errorf("%v: breakdown total %v diverges from cost %v", cfg, br.TotalMJ(), cost.EnergyMJ)
		}

		// Ledger cross-check: the breakdown's memory components are the
		// ledger's device totals.
		led := b.Ledger()
		mram := led.Total("STT-MRAM").EnergyPJ / 1e9
		if rel := math.Abs(mram-(br.MRAMReadMJ+br.NVMWriteMJ)) / mram; rel > 0.01 {
			t.Errorf("%v: MRAM ledger %v mJ vs breakdown %v mJ", cfg, mram, br.MRAMReadMJ+br.NVMWriteMJ)
		}
		dram := led.Total("DRAM").EnergyPJ / 1e9
		if rel := math.Abs(dram-br.LinkMJ) / dram; rel > 0.01 {
			t.Errorf("%v: DRAM ledger %v mJ vs breakdown link %v mJ", cfg, dram, br.LinkMJ)
		}
	}
}

// TestSystolicBackendTrainStepWriteAsymmetry is the co-design point: charged
// training steps write the STT-MRAM stack only under the E2E baseline; for
// every L-topology the trained layers are SRAM-resident and the NVM write
// energy stays identically zero.
func TestSystolicBackendTrainStepWriteAsymmetry(t *testing.T) {
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	for _, cfg := range nn.Configs {
		b, _ := newTestBackend(t, cfg, 41)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 4; i++ {
			obs.RandUniform(rng, 1)
			b.Infer(obs)
			b.ChargeTrainStep()
		}
		if b.TrainSteps() != 4 {
			t.Fatalf("%v: %d train steps charged", cfg, b.TrainSteps())
		}
		br := b.Breakdown()
		writes := b.Ledger().Total("STT-MRAM").WriteBits
		if cfg == nn.E2E {
			if br.NVMWriteMJ <= 0 || writes <= 0 {
				t.Errorf("E2E training must write the stack: %v mJ, %d bits", br.NVMWriteMJ, writes)
			}
		} else {
			if br.NVMWriteMJ != 0 || writes != 0 {
				t.Errorf("%v training wrote the stack: %v mJ, %d bits (must be identically zero)",
					cfg, br.NVMWriteMJ, writes)
			}
		}
		// Training re-streams weights: MRAM reads must exceed the
		// inference-only stream.
		inferOnly, _ := newTestBackend(t, cfg, 41)
		rng2 := rand.New(rand.NewSource(42))
		for i := 0; i < 4; i++ {
			obs.RandUniform(rng2, 1)
			inferOnly.Infer(obs)
		}
		if b.Ledger().Total("STT-MRAM").ReadBits <= inferOnly.Ledger().Total("STT-MRAM").ReadBits {
			t.Errorf("%v: training did not add weight re-streams", cfg)
		}
	}
}

// TestSystolicBackendRejectsUnmappableLayers: LRN has no int16 kernel and no
// PE-array mapping.
func TestSystolicBackendRejectsUnmappableLayers(t *testing.T) {
	net := nn.NewNetwork(nn.NewLRN("lrn"))
	if _, err := NewSystolicBackend(net, nn.NavNetSpec(), nn.L3); err == nil {
		t.Error("LRN must be rejected")
	}
}

func TestSystolicBackendRegistered(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(5)))
	b, err := nn.NewBackendFor("systolic", net, spec, nn.L4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "systolic" {
		t.Errorf("name %q", b.Name())
	}
}

// TestSystolicCyclesAreChargedLatency holds the backend to one timing model:
// every charge — each Infer, each pipelined InferBatch, each ChargeTrainStep
// — adds the cycles of the latency it adds, at the array clock, to the
// nearest cycle.
func TestSystolicCyclesAreChargedLatency(t *testing.T) {
	for _, cfg := range nn.Configs {
		b, _ := newTestBackend(t, cfg, 81)
		clock := b.model.array.ClockGHz
		check := func(what string, charge func()) {
			before := b.Cost()
			charge()
			after := b.Cost()
			cycles := after.Cycles - before.Cycles
			want := (after.LatencyMS - before.LatencyMS) * 1e6 * clock
			// Half a cycle, plus the rounding of the running latency sum
			// the delta is read back from.
			if math.Abs(float64(cycles)-want) > 0.5+1e-6 {
				t.Errorf("%v %s: charged %d cycles for %.1f cycles of latency", cfg, what, cycles, want)
			}
		}
		rng := rand.New(rand.NewSource(82))
		obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		for i := 0; i < 2; i++ {
			obs.RandUniform(rng, 1)
			check("Infer", func() { b.Infer(obs) })
		}
		for _, bsz := range []int{1, 4, 8, 32} {
			batch := tensor.New(bsz, 1, nn.NavNetInput, nn.NavNetInput)
			batch.RandUniform(rng, 1)
			check(fmt.Sprintf("InferBatch(%d)", bsz), func() { b.InferBatch(batch) })
			check("ChargeTrainStep", b.ChargeTrainStep)
		}
	}
}
