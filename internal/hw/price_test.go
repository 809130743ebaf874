package hw

import (
	"math/rand"
	"slices"
	"testing"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/tensor"
)

// navNet returns a seeded NavNet under cfg.
func navNet(seed int64, cfg nn.Config) *nn.Network {
	net := nn.NavNetSpec().Build()
	net.Init(rand.New(rand.NewSource(seed)))
	net.SetConfig(cfg)
	return net
}

func newQuantTrain(t *testing.T, seed int64, cfg nn.Config) *QuantTrainBackend {
	t.Helper()
	b, err := NewQuantTrainBackend(navNet(seed, cfg), nn.NavNetSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tdBatch is a TD minibatch of n random frames; row s is terminal when
// done(s).
func tdBatch(rng *rand.Rand, n int, done func(s int) bool) nn.TrainBatch {
	tb := nn.TrainBatch{
		States:  tensor.New(n, 1, nn.NavNetInput, nn.NavNetInput),
		Nexts:   tensor.New(n, 1, nn.NavNetInput, nn.NavNetInput),
		Actions: make([]int, n),
		Rewards: make([]float64, n),
		Done:    make([]bool, n),
		Gamma:   0.95,
		LR:      0.01,
	}
	tb.States.RandUniform(rng, 1)
	tb.Nexts.RandUniform(rng, 1)
	for s := range n {
		tb.Actions[s] = rng.Intn(nn.NavNetActions)
		tb.Rewards[s] = rng.Float64() - 0.5
		tb.Done[s] = done(s)
	}
	return tb
}

// featureTwin is tb carried as boundary features, the way an actor ships it.
func featureTwin(b *QuantTrainBackend, tb nn.TrainBatch) nn.TrainBatch {
	out := tb
	out.States, out.Nexts = nil, nil
	chw := nn.NavNetInput * nn.NavNetInput
	frame := func(t *tensor.Tensor, s int) *tensor.Tensor {
		return tensor.FromSlice(t.Data()[s*chw:(s+1)*chw], 1, nn.NavNetInput, nn.NavNetInput)
	}
	for s := range tb.Actions {
		out.Feats = append(out.Feats, b.BoundaryFeatures(frame(tb.States, s))...)
		out.NextFeats = append(out.NextFeats, b.BoundaryFeatures(frame(tb.Nexts, s))...)
	}
	return out
}

// TestStackTrafficIsBreakdown: the price list's per-image reads (forward and
// backward) and update writes, priced at Table 1, are Model.Breakdown's
// MRAMReadMJ and NVMWriteMJ to the last bit, on both architectures under
// every topology; and NavNet's forward stream is the compiled engine's
// whole weight store.
func TestStackTrafficIsBreakdown(t *testing.T) {
	for _, spec := range []nn.ArchSpec{nn.NavNetSpec(), nn.ModifiedAlexNetSpec()} {
		m := NewModelFor(spec)
		for _, cfg := range nn.Configs {
			tr := m.StackTraffic(cfg)
			var read, write float64
			for _, bits := range slices.Concat(tr.Forward, tr.Backward) {
				read += m.MRAM.EnergyPJ(mem.Read, bits) / 1e9
			}
			for _, bits := range tr.Update {
				write += m.MRAM.EnergyPJ(mem.Write, bits) / 1e9
			}
			br := m.Breakdown(cfg)
			if read != br.MRAMReadMJ || write != br.NVMWriteMJ {
				t.Errorf("%s %s: price list reads %v / writes %v mJ, Breakdown %v / %v",
					spec.Name, cfg, read, write, br.MRAMReadMJ, br.NVMWriteMJ)
			}
			sum := func(xs []int64) (s int64) {
				for _, x := range xs {
					s += x
				}
				return s
			}
			if sum(tr.Forward) != tr.ForwardBits || sum(tr.Backward) != tr.BackwardBits || sum(tr.Update) != tr.UpdateBits {
				t.Errorf("%s %s: the sums disagree with the rows: %+v", spec.Name, cfg, tr)
			}
			if want := int64(spec.TotalWeights()) * 16; tr.ForwardBits != want {
				t.Errorf("%s %s: forward stream %d bits, the store holds %d", spec.Name, cfg, tr.ForwardBits, want)
			}
		}
	}
	q, err := qnn.Compile(navNet(1, nn.E2E), qnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := NewModelFor(nn.NavNetSpec()).StackTraffic(nn.E2E).ForwardBits, q.WeightBits(); got != want {
		t.Errorf("price list streams %d bits per forward pass, the engine stores %d", got, want)
	}
}

// TestQuantTrainLedgerIsTheModel: a batch-1 terminal quant-train step on
// NavNet records the price list's stack bits — one forward image, one
// backward image, one update, written only under E2E — with per-step energy
// strictly ordered L2 < L3 < L4 < E2E; and one NavNet inference reads the
// same bits under quant and systolic.
func TestQuantTrainLedgerIsTheModel(t *testing.T) {
	want := map[nn.Config][2]int64{
		nn.L2:  {2361072, 0},
		nn.L3:  {2625264, 0},
		nn.L4:  {6823664, 0},
		nn.E2E: {6823664, 2121216},
	}
	prev := 0.0
	for _, cfg := range nn.Configs {
		b := newQuantTrain(t, 3, cfg)
		b.Train(tdBatch(rand.New(rand.NewSource(4)), 1, func(int) bool { return true }))
		mram := b.Ledger().Total("STT-MRAM")
		if got := [2]int64{mram.ReadBits, mram.WriteBits}; got != want[cfg] {
			t.Errorf("%s: read/write %v bits, want %v", cfg, got, want[cfg])
		}
		e := b.Cost().EnergyMJ
		if e <= prev {
			t.Errorf("%s: %v mJ per step, not above the smaller topology's %v", cfg, e, prev)
		}
		prev = e
		t.Logf("%s: read %d, write %d bits, %.3f uJ", cfg, mram.ReadBits, mram.WriteBits, e*1e3)
	}

	spec := nn.NavNetSpec()
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	for _, name := range []string{"quant", "systolic"} {
		b, err := nn.NewBackendFor(name, navNet(5, nn.L3), spec, nn.L3)
		if err != nil {
			t.Fatal(err)
		}
		b.Infer(obs)
		if got := b.(interface{ Ledger() *mem.EnergyLedger }).Ledger().Total("STT-MRAM").ReadBits; got != 2289232 {
			t.Errorf("%s: one inference read %d bits, want 2289232", name, got)
		}
	}
}

// TestQuantBackendChargesOneStreamPerInference: every Infer charges one full
// weight stream against the STT-MRAM ledger, and never writes it.
func TestQuantBackendChargesOneStreamPerInference(t *testing.T) {
	spec := nn.NavNetSpec()
	b, err := NewQuantBackend(navNet(11, nn.E2E), spec, nn.E2E)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	const trials = 8
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	for range trials {
		obs.RandUniform(rng, 1)
		b.Infer(obs)
	}
	cost := b.Cost()
	if cost.Inferences != trials {
		t.Errorf("cost counted %d inferences, want %d", cost.Inferences, trials)
	}
	if cost.EnergyMJ <= 0 || cost.LatencyMS <= 0 {
		t.Errorf("cost %+v must price the weight stream", cost)
	}
	mram := b.Ledger().Total("STT-MRAM")
	if want := trials * int64(spec.TotalWeights()) * 16; mram.ReadBits != want {
		t.Errorf("ledger read %d bits, want %d (one weight stream per inference)", mram.ReadBits, want)
	}
	if mram.WriteBits != 0 {
		t.Errorf("inference wrote %d bits to the stack", mram.WriteBits)
	}
}

func TestQuantBackendRegistered(t *testing.T) {
	spec := nn.NavNetSpec()
	b, err := nn.NewBackendFor("quant", navNet(3, nn.L3), spec, nn.L3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "quant" {
		t.Errorf("name %q", b.Name())
	}
	if b.Cost() != (nn.BackendCost{}) {
		t.Errorf("fresh quant backend charged %+v", b.Cost())
	}
}

// TestQuantInferBatchLedgerAmortized asserts the batched pass of both priced
// int16 engines: every row is bit-identical to the frame's own Infer, and
// one InferBatch call charges exactly one weight stream — every layer's
// weights read from the stack once — no matter how many requests the batch
// carries, while the per-sample path charges one stream per request.
func TestQuantInferBatchLedgerAmortized(t *testing.T) {
	spec := nn.NavNetSpec()
	stream := NewModelFor(spec).StackTraffic(nn.E2E).ForwardBits
	const bsz = 8
	stack := tensor.New(bsz, 1, nn.NavNetInput, nn.NavNetInput)
	stack.RandUniform(rand.New(rand.NewSource(42)), 1)
	for _, name := range []string{"quant", "quant-train"} {
		t.Run(name, func(t *testing.T) {
			b, err := nn.NewBackendFor(name, navNet(41, nn.E2E), spec, nn.E2E)
			if err != nil {
				t.Fatal(err)
			}
			ledger := b.(Ledgered).Ledger()
			rows := slices.Clone(b.InferBatch(stack))
			mram := ledger.Total("STT-MRAM")
			if mram.ReadBits != stream {
				t.Errorf("batch of %d read %d bits, want %d (one stream per layer, not one per request)",
					bsz, mram.ReadBits, stream)
			}
			if got := b.Cost().Inferences; got != bsz {
				t.Errorf("batch of %d counted %d inferences", bsz, got)
			}
			batchMJ := b.Cost().EnergyMJ

			// The per-sample path answers the same rows and pays bsz streams.
			n, actions := stack.Len()/bsz, len(rows)/bsz
			for s := range bsz {
				q := b.Infer(tensor.FromSlice(slices.Clone(stack.Data()[s*n:(s+1)*n]), 1, nn.NavNetInput, nn.NavNetInput))
				if want := rows[s*actions : (s+1)*actions]; !slices.Equal(q, want) {
					t.Fatalf("sample %d: Infer %v, InferBatch row %v (must be bit-identical)", s, q, want)
				}
			}
			mram = ledger.Total("STT-MRAM")
			if want := (1 + bsz) * stream; mram.ReadBits != want {
				t.Errorf("after %d serial Infers ledger reads %d bits, want %d", bsz, mram.ReadBits, want)
			}
			if serialMJ := b.Cost().EnergyMJ - batchMJ; batchMJ >= serialMJ {
				t.Errorf("batched energy %v mJ not below serial %v mJ: weight stream is not amortized", batchMJ, serialMJ)
			}
			if mram.WriteBits != 0 {
				t.Errorf("inference wrote %d bits to the stack", mram.WriteBits)
			}
		})
	}
}

// TestTrainBackendRegistered asserts the registry wiring end to end.
func TestTrainBackendRegistered(t *testing.T) {
	if !nn.HasBackend("quant-train") {
		t.Fatal("quant-train not registered")
	}
	bk, err := nn.NewBackendFor("quant-train", navNet(29, nn.E2E), nn.NavNetSpec(), nn.E2E)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bk.(nn.TrainableBackend); !ok {
		t.Fatalf("quant-train backend is not trainable (%T)", bk)
	}
	if _, ok := bk.(nn.BoundaryFeaturizer); !ok {
		t.Fatalf("quant-train backend does not featurize (%T)", bk)
	}
	if q := bk.Infer(tensor.New(1, nn.NavNetInput, nn.NavNetInput)); len(q) != nn.NavNetActions {
		t.Fatalf("Infer returned %d values, want %d", len(q), nn.NavNetActions)
	}
}

// TestQuantTrainBackendCharges: a TD step charges STT-MRAM energy and
// latency — n+live forward and n backward images, one update — and a target
// sync charges one policy publish, device by device.
func TestQuantTrainBackendCharges(t *testing.T) {
	for _, cfg := range nn.Configs {
		b := newQuantTrain(t, 19, cfg)
		tr := b.traffic
		b.Train(tdBatch(rand.New(rand.NewSource(23)), 3, func(s int) bool { return s == 2 }))
		cost := b.Cost()
		if cost.EnergyMJ <= 0 || cost.LatencyMS <= 0 {
			t.Fatalf("%s: training charged no energy: %+v", cfg, cost)
		}
		mram := b.Ledger().Total("STT-MRAM")
		if want := 5*tr.ForwardBits + 3*tr.BackwardBits; mram.ReadBits != want {
			t.Errorf("%s: step read %d bits, want %d", cfg, mram.ReadBits, want)
		}
		if mram.WriteBits != tr.UpdateBits {
			t.Errorf("%s: step wrote %d bits, want %d", cfg, mram.WriteBits, tr.UpdateBits)
		}

		before := map[string]int64{}
		for _, d := range []string{"STT-MRAM", "SRAM"} {
			before[d] = b.Ledger().Total(d).WriteBits
		}
		b.SyncTarget()
		publish := b.model.SnapshotPublishTraffic(cfg)
		for _, p := range publish {
			if got := b.Ledger().Total(p.Device.Name).WriteBits - before[p.Device.Name]; got != p.Bits {
				t.Errorf("%s: SyncTarget wrote %d %s bits, a publish writes %d", cfg, got, p.Device.Name, p.Bits)
			}
		}
		if len(publish) == 0 || b.Cost().EnergyMJ <= cost.EnergyMJ {
			t.Errorf("%s: SyncTarget charged no energy", cfg)
		}
	}
}

// TestQuantTrainChargesWhatTheChipDoes: the cost is the modeled chip's, not
// the host's. A schedule fed as boundary features costs what it costs as
// frames; BoundaryFeatures and GreedyFrom charge nothing; a malformed batch
// is refused before anything is charged.
func TestQuantTrainChargesWhatTheChipDoes(t *testing.T) {
	for _, cfg := range []nn.Config{nn.L2, nn.L3} {
		frames, feats := newQuantTrain(t, 7, cfg), newQuantTrain(t, 7, cfg)
		rngA, rngB := rand.New(rand.NewSource(80)), rand.New(rand.NewSource(80))
		for step := 1; step <= 6; step++ {
			terminal := func(s int) bool { return s%7 == 3 }
			frames.Train(tdBatch(rngA, 8, terminal))
			before := feats.Cost()
			twin := featureTwin(feats, tdBatch(rngB, 8, terminal))
			if feats.Cost() != before {
				t.Fatalf("%s: BoundaryFeatures moved the cost %+v to %+v", cfg, before, feats.Cost())
			}
			feats.GreedyFrom(twin.Feats[:len(twin.Feats)/8])
			if feats.Cost() != before {
				t.Fatalf("%s: GreedyFrom moved the cost %+v to %+v", cfg, before, feats.Cost())
			}
			feats.Train(twin)
			if step%4 == 0 {
				frames.SyncTarget()
				feats.SyncTarget()
			}
		}
		if frames.Cost() != feats.Cost() || frames.Steps() != feats.Steps() {
			t.Errorf("%s: frames cost %+v in %d steps, features %+v in %d: featurizing must charge nothing",
				cfg, frames.Cost(), frames.Steps(), feats.Cost(), feats.Steps())
		}

		bad := newQuantTrain(t, 7, cfg)
		tb := tdBatch(rand.New(rand.NewSource(9)), 4, func(int) bool { return false })
		tb.Rewards = tb.Rewards[:3]
		func() {
			defer func() { recover() }()
			bad.Train(tb)
		}()
		if bad.Steps() != 0 || bad.Cost() != (nn.BackendCost{}) {
			t.Errorf("%s: rejected batch was counted: steps %d, cost %+v", cfg, bad.Steps(), bad.Cost())
		}
	}
}
