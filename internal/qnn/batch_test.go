package qnn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Compile-time pin: the quant backend answers the serving batcher's
// coalesced path.
var _ nn.BatchInferrer = (*Backend)(nil)

// scenarioObs flies count random actions in the named catalog world and
// returns the depth observations along the way — realistic inputs for the
// bit-identity sweep, not just uniform noise.
func scenarioObs(t *testing.T, name string, count int, seed int64) []*tensor.Tensor {
	t.Helper()
	sc, ok := env.LookupScenario(name)
	if !ok {
		t.Fatalf("scenario %q vanished from the catalog", name)
	}
	w := sc.Build(seed)
	w.Spawn()
	rng := rand.New(rand.NewSource(seed + 1))
	obs := make([]*tensor.Tensor, 0, count)
	obs = append(obs, env.DepthImage(w.Depths(), w.Camera.MaxRange))
	for len(obs) < count {
		res := w.Step(env.Action(rng.Intn(env.NumActions)))
		obs = append(obs, env.DepthImage(res.Depths, w.Camera.MaxRange))
	}
	return obs
}

// TestQuantInferBatchBitIdentical asserts the engine returns, word for word,
// exactly what the PE datapath's scalar loops (serial_test.go: one sample at
// a time, saturating at every MAC) return — on every builtin scenario's
// observations, across batch sizes {1, 8, 32}, and for the lone-frame entry
// points Forward and Infer as for ForwardBatch and InferBatch. This pins the
// wrap-around-kernel vs saturating-MAC accumulation argument (batch.go) on
// real depth images, and the backend-level float rows with it.
func TestQuantInferBatchBitIdentical(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(31)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	qnet := b.net
	actions := spec.FCs[len(spec.FCs)-1].Out
	row := env.ImageSize * env.ImageSize

	for si, name := range env.ScenarioNames() {
		obs := scenarioObs(t, name, 32, int64(100+si))
		for _, bsz := range []int{1, 8, 32} {
			stack := tensor.New(bsz, 1, env.ImageSize, env.ImageSize)
			for s := 0; s < bsz; s++ {
				copy(stack.Data()[s*row:(s+1)*row], obs[s].Data())
			}
			wantWords := make([][]int16, bsz)
			wantQ := make([][]float32, bsz)
			for s := 0; s < bsz; s++ {
				words := serialForward(qnet, obs[s])
				one, outFmt := qnet.Forward(obs[s])
				oneQ := b.Infer(obs[s])
				wantWords[s] = make([]int16, len(words))
				wantQ[s] = make([]float32, len(words))
				for i, w := range words {
					wantWords[s][i] = int16(w)
					wantQ[s][i] = float32(outFmt.ToFloat(w))
				}
				for i, w := range words {
					if one[i] != w || oneQ[i] != wantQ[s][i] {
						t.Fatalf("%s sample %d: lone frame word[%d] = %d (Q %v), scalar reference %d (Q %v)",
							name, s, i, one[i], oneQ[i], w, wantQ[s][i])
					}
				}
			}
			gotWords, _ := qnet.ForwardBatch(stack)
			if len(gotWords) != bsz*actions {
				t.Fatalf("%s batch %d: ForwardBatch returned %d words, want %d",
					name, bsz, len(gotWords), bsz*actions)
			}
			for s := 0; s < bsz; s++ {
				for i := 0; i < actions; i++ {
					if got := int16(gotWords[s*actions+i]); got != wantWords[s][i] {
						t.Fatalf("%s batch %d sample %d: word[%d] = %d, want %d (must be bit-identical)",
							name, bsz, s, i, got, wantWords[s][i])
					}
				}
			}
			gotQ := b.InferBatch(stack)
			for s := 0; s < bsz; s++ {
				for i := 0; i < actions; i++ {
					if gotQ[s*actions+i] != wantQ[s][i] {
						t.Fatalf("%s batch %d sample %d: Q[%d] = %v, want %v (must be bit-identical)",
							name, bsz, s, i, gotQ[s*actions+i], wantQ[s][i])
					}
				}
			}
		}
	}
}

// TestQuantInferBatchLedgerAmortized asserts the batched path's energy
// accounting: one InferBatch call charges exactly one weight stream — every
// layer's weights read from the stack once — no matter how many requests the
// batch carries, while the per-sample path charges one stream per request.
func TestQuantInferBatchLedgerAmortized(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(41)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	stream := b.net.WeightBits()
	if stream <= 0 {
		t.Fatal("compiled network reports no weight traffic")
	}

	const bsz = 8
	stack := tensor.New(bsz, 1, env.ImageSize, env.ImageSize)
	stack.RandUniform(rand.New(rand.NewSource(42)), 1)

	b.InferBatch(stack)
	mram := b.Ledger().Total("STT-MRAM")
	if mram.ReadBits != stream {
		t.Errorf("batch of %d read %d bits, want %d (one stream per layer, not one per request)",
			bsz, mram.ReadBits, stream)
	}
	if got := b.Cost().Inferences; got != bsz {
		t.Errorf("batch of %d counted %d inferences", bsz, got)
	}
	batchMJ := b.Cost().EnergyMJ

	// The per-sample path pays bsz streams for the same work.
	for s := 0; s < bsz; s++ {
		obs := tensor.FromSlice(append([]float32(nil), stack.Data()[s*stack.Len()/bsz:(s+1)*stack.Len()/bsz]...),
			1, env.ImageSize, env.ImageSize)
		b.Infer(obs)
	}
	mram = b.Ledger().Total("STT-MRAM")
	if want := (1 + bsz) * stream; mram.ReadBits != want {
		t.Errorf("after %d serial Infers ledger reads %d bits, want %d", bsz, mram.ReadBits, want)
	}
	serialMJ := b.Cost().EnergyMJ - batchMJ
	if batchMJ >= serialMJ {
		t.Errorf("batched energy %v mJ not below serial %v mJ: weight stream is not amortized", batchMJ, serialMJ)
	}
	if mram.WriteBits != 0 {
		t.Errorf("inference wrote %d bits to the stack", mram.WriteBits)
	}
}

// TestQuantForwardBatchZeroAlloc asserts the steady-state allocation
// contract of the integer pass: after warm-up, ForwardBatch touches only the
// workspace, and so does a lone frame through Backend.Infer, the batch of
// one. Pinned on the single-threaded schedule — above the flops threshold the
// GEMM's row fan-out allocates goroutine closures, the same caveat the float
// arena documents.
func TestQuantForwardBatchZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(51)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	qnet := b.net
	stack := tensor.New(8, 1, env.ImageSize, env.ImageSize)
	stack.RandUniform(rand.New(rand.NewSource(52)), 1)
	qnet.ForwardBatch(stack) // warm-up sizes every slot
	if allocs := testing.AllocsPerRun(10, func() {
		qnet.ForwardBatch(stack)
	}); allocs != 0 {
		t.Errorf("steady-state ForwardBatch allocates %v times per call, want 0", allocs)
	}
	one := tensor.New(1, env.ImageSize, env.ImageSize)
	one.RandUniform(rand.New(rand.NewSource(53)), 1)
	b.Infer(one)
	if allocs := testing.AllocsPerRun(10, func() { b.Infer(one) }); allocs != 0 {
		t.Errorf("steady-state Infer allocates %v times per lone frame, want 0", allocs)
	}
}

// inferGolden hashes what Backend.Infer answers, frame by frame, for 16
// frames of every builtin scenario and 32 dense uniform frames (the serving
// benchmark's kind): start covers the compiled words and the frames' float
// bits, final every Q-value's float bits.
func inferGolden(t *testing.T, net *nn.Network) (start, final string) {
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*tensor.Tensor
	for si, name := range env.ScenarioNames() {
		frames = append(frames, scenarioObs(t, name, 16, int64(300+si))...)
	}
	rng := rand.New(rand.NewSource(301))
	for i := 0; i < 32; i++ {
		f := tensor.New(1, env.ImageSize, env.ImageSize)
		for j := range f.Data() {
			f.Data()[j] = rng.Float32()
		}
		frames = append(frames, f)
	}
	hs, hf := sha256.New(), sha256.New()
	for _, l := range b.net.Layers {
		switch l := l.(type) {
		case *Conv2D:
			hashWords(hs, l.W)
			hashWords(hs, l.B)
		case *Dense:
			hashWords(hs, l.W)
			hashWords(hs, l.B)
		}
	}
	for _, f := range frames {
		for _, v := range f.Data() {
			hashU64(hs, uint64(math.Float32bits(v)))
		}
		for _, q := range b.Infer(f) {
			hashU64(hf, uint64(math.Float32bits(q)))
		}
	}
	return hex.EncodeToString(hs.Sum(nil)), hex.EncodeToString(hf.Sum(nil))
}

// TestQuantInferGolden pins Backend.Infer bit for bit to what the per-sample,
// per-MAC-saturating engine answered at fd6fe34 (hashes captured there,
// before Infer became the batch of one of the wrap-around kernels), on a
// fresh-init and on the meta-trained NavNet. As in TestTrainBackendGolden,
// the meta start is float work and is excused where the compiler fuses
// multiply-adds; scenario frames come out of float ray casting, so the init
// pin is guarded by its start hash the same way.
func TestQuantInferGolden(t *testing.T) {
	for _, tc := range []struct {
		name        string
		net         *nn.Network
		start, want string
	}{
		{"init", trainedNavNet(79), "b2524c1da6efd71cdb372f28ed019efb196ff0e17c59d23ab51bfc4c043fdf07", "9e339f5cd030930ff6bdd8a8640ed1f3fe98ccad24a84758840c42aadd6e8f51"},
		{"meta", metaTrainedNavNet()(), "1b5d3fe1ead36789742c74cb499a4cddd6cde12ecde51e40732f52b85311ba1d", "c6b0826792e4031ce57b3b07de6cb6b081adb8ac7e22d9c62041cd949a356014"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, got := inferGolden(t, tc.net)
			if start != tc.start {
				if runtime.GOARCH != "amd64" {
					t.Skipf("float meta-training and ray casting round differently on %s (fused multiply-add): start %s, pinned %s",
						runtime.GOARCH, start, tc.start)
				}
				t.Fatalf("the frames or the quantizer moved, not the engine: start %s, pinned %s", start, tc.start)
			}
			if got != tc.want {
				t.Fatalf("Infer is no longer bit-identical to the pinned per-sample engine: got %s, want %s", got, tc.want)
			}
		})
	}
}
